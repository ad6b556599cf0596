"""Command line interface: ``rislab <task> --config <path> [--seed N] [--out DIR]``.

Tasks:

* ``spectrum``  peripheral data of the reduced map along the protocol;
* ``lambda``    the limiting cumulant functional on an alpha grid;
* ``ldp``       the rate function on the reachable x window;
* ``simulate``  forward sampling, CLT histograms and Landauer's balance
                sigma_tot = Delta S + E(Delta_y) for each T;
* ``adiabatic`` residuals of the adiabatic product approximation;
* ``balance``   exact enumeration with the trajectory balance report;
* ``x0``        finite-T versus closed-form limits for the exactly
                stationary exchange preset.

Every run writes a ``manifest.json`` with the config hash, the seed, and
the defaults that were filled in; reruns with the same inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os

import numpy as np

from . import adiabatic, fullstats, mgfldp, model, spectral
from .config import ConfigError, RunConfig, load_config, parse_seed, write_manifest
from .linalg import LinalgError, trace_norm

TASKS = ("spectrum", "lambda", "ldp", "simulate", "adiabatic", "balance", "x0")
# At or below this Lambda''(0) is round-off (the exactly stationary case):
# Delta_y has a limit law without rescaling, so the standardized samples
# shrink like 1/sqrt(T) and the CLT histogram bins them over their own range.
CLT_DEGENERATE_D2 = 1e-12


def _writer(path):
    fh = open(path, "w", newline="\n")
    return fh, csv.writer(fh, lineterminator="\n")


def _f(x: float) -> str:
    return repr(float(x))


def _initial_state(cfg: RunConfig) -> np.ndarray:
    if cfg.rho_i is not None:
        return cfg.rho_i
    return model.gibbs_state(cfg.model.h_sys, cfg.model.beta(0.0))


def _entropic_setup(cfg: RunConfig, rho_i: np.ndarray) -> fullstats.MeasurementSetup:
    """A_i = -log rho_i; a configured rho_i that is not faithful is refused at its path."""
    try:
        return fullstats.entropic_setup(rho_i)
    except LinalgError as exc:
        if cfg.rho_i is None:  # the default Gibbs state is no config field
            raise
        raise ConfigError(f"numeric.rho_i: not faithful, {exc}") from None


def task_spectrum(cfg: RunConfig, out: str) -> None:
    s_grid = np.linspace(0.0, 1.0, cfg.s_nodes)
    fams = model.kraus_families(cfg.model, s_grid)
    decs = spectral.peripheral_decompositions(fams.deformed_matrix(0.0))
    fh, w = _writer(os.path.join(out, "spectrum.csv"))
    with fh:
        populations = [f"rho_{i}{i}" for i in range(cfg.model.dim_sys)]
        w.writerow(["s", "beta", "spectral_radius", "period", *populations])
        for s, lam, z, rho in zip(s_grid, decs.spectral_radius, decs.period, decs.rho):
            w.writerow(
                [_f(s), _f(cfg.model.beta(float(s))), _f(lam), int(z)]
                + [_f(p) for p in np.diagonal(rho).real]
            )
    fh2, w2 = _writer(os.path.join(out, "beta_curves.csv"))
    with fh2:
        w2.writerow(["s", "beta"])
        for s in s_grid:
            w2.writerow([_f(s), _f(cfg.model.beta(float(s)))])


def task_lambda(cfg: RunConfig, out: str) -> None:
    ev = mgfldp.LambdaEvaluator(cfg.model, cfg.s_nodes)
    lo, hi, n = cfg.alpha_grid
    fh, w = _writer(os.path.join(out, "lambda.csv"))
    with fh:
        w.writerow(["alpha", "Lambda"])
        for a in np.linspace(lo, hi, n):
            w.writerow([_f(a), _f(ev(float(a)))])
    d1, d2 = ev.derivatives_at_zero()
    fh2, w2 = _writer(os.path.join(out, "lambda_derivatives.csv"))
    with fh2:
        w2.writerow(["d1_at_0", "d2_at_0"])
        w2.writerow([_f(d1), _f(d2)])


def task_ldp(cfg: RunConfig, out: str) -> None:
    ev = mgfldp.LambdaEvaluator(cfg.model, cfg.s_nodes)
    fh, w = _writer(os.path.join(out, "lambda_star.csv"))
    with fh:
        w.writerow(["x", "Lambda_star"])
        for a in np.linspace(-2.0, 1.0, 31):
            w.writerow([_f(v) for v in mgfldp.legendre_point(ev, float(a))])


def task_simulate(cfg: RunConfig, out: str) -> None:
    """Per T of ``T_list``: sampled trajectories, their CLT histogram and,
    in ``landauer.csv``, the exact mean of the sampled varsigma,
    sigma_tot = Delta S + E(Delta_y) (Landauer's balance, from the table)."""
    setup = _entropic_setup(cfg, _initial_state(cfg))
    d1, d2 = mgfldp.lambda_derivatives_at_zero(cfg.model, cfg.s_nodes)
    nodes = fullstats.ProtocolNodes(cfg.model, cfg.T_list)
    if d2 > CLT_DEGENERATE_D2:
        bins = np.linspace(-4 * np.sqrt(d2), 4 * np.sqrt(d2), 42)
    else:
        bins = 41
    # every T reads a prefix of the same per-trajectory streams
    uniforms = fullstats.trajectory_uniforms(cfg.seed, cfg.n, max(cfg.T_list) + 2)
    for T in cfg.T_list:
        samp = fullstats.sample_trajectories(
            cfg.model, setup, T, cfg.n, seed=cfg.seed, nodes=nodes, uniforms=uniforms
        )
        if cfg.write_csv:
            fullstats.write_trajectories_csv(
                os.path.join(out, f"trajectories_T{T}.csv"), samp
            )
        standardized = (samp.delta_y - T * d1) / np.sqrt(T)
        counts, edges = np.histogram(standardized, bins=bins)
        fh, w = _writer(os.path.join(out, f"clt_hist_T{T}.csv"))
        with fh:
            w.writerow(["bin_left", "bin_right", "count", "density"])
            widths = np.diff(edges)
            for i, c in enumerate(counts):
                w.writerow(
                    [
                        _f(edges[i]),
                        _f(edges[i + 1]),
                        int(c),
                        _f(c / (cfg.n * widths[i])),
                    ]
                )
    fh, w = _writer(os.path.join(out, "landauer.csv"))
    with fh:
        w.writerow(["T", "delta_S", "beta_heat", "sigma_tot"])
        for T in cfg.T_list:
            delta_s, heat = fullstats._landauer_terms(nodes, setup.rho_i, T)
            w.writerow([T, _f(delta_s), _f(heat), _f(delta_s + heat)])


def task_adiabatic(cfg: RunConfig, out: str) -> None:
    fam = adiabatic.AdiabaticFamily(cfg.model, cfg.alpha)
    rho_i = _initial_state(cfg)
    fh, w = _writer(os.path.join(out, "adiabatic.csv"))
    with fh:
        w.writerow(["T", "alpha", "residual"])
        for T in cfg.T_list:
            exact = adiabatic.exact_deformed_chain(fam, rho_i, T)
            approx = adiabatic.deformed_adiabatic_state(fam, rho_i, T)
            w.writerow([T, _f(cfg.alpha), _f(trace_norm(exact - approx))])


def task_balance(cfg: RunConfig, out: str) -> None:
    setup = _entropic_setup(cfg, _initial_state(cfg))
    nodes = fullstats.ProtocolNodes(cfg.model, [cfg.T])
    meas = fullstats.enumerate_measure(cfg.model, setup, cfg.T, nodes=nodes)
    if cfg.write_csv:
        fullstats.write_measure_csv(os.path.join(out, "measure.csv"), meas)
    rhs = fullstats.balance_rhs(cfg.model, setup, meas, cfg.T, nodes=nodes)
    applicable = rhs is not None
    fh, w = _writer(os.path.join(out, "balance.csv"))
    with fh:
        w.writerow(["applicable", "sigma_tot", "max_balance_defect"])
        worst = float("nan")
        if applicable:
            seen = meas.p_forward > 0
            log_ratio = np.log(meas.p_forward[seen] / meas.p_backward[seen])
            worst = float(np.max(np.abs(log_ratio - rhs[seen]), initial=0.0))
        w.writerow(
            [str(applicable), _f(meas.entropy_production()), _f(worst)]
        )


def task_x0(cfg: RunConfig, out: str) -> None:
    m = cfg.model
    rho_i = _initial_state(cfg)
    setup = _entropic_setup(cfg, rho_i)
    nodes = fullstats.ProtocolNodes(m, cfg.T_list)
    # s = 1 is the last node of every chain
    ends = np.stack([model.kraus_family(m, 0.0).deformed_matrix(0.0), nodes.reduced[-1]])
    rho0, rho1 = spectral.peripheral_decompositions(ends).rho
    grid = [(-0.5, -0.5), (-0.5, 0.5), (0.0, 0.3), (0.5, -0.5), (0.5, 0.5)]
    fh, w = _writer(os.path.join(out, "x0.csv"))
    with fh:
        w.writerow(["T", "alpha1", "alpha2", "finite_T", "limit", "abs_error"])
        for T in cfg.T_list:
            finite = mgfldp.mgf_pair(m, setup, T, *np.array(grid).T, nodes=nodes).real
            for (a1, a2), fin in zip(grid, finite):
                lim = mgfldp.stationary_pair_mgf_limit(rho0, rho1, rho_i, a1, a2).real
                w.writerow([T, _f(a1), _f(a2), _f(fin), _f(lim), _f(abs(fin - lim))])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rislab",
        description="numerical laboratory for adiabatic repeated interaction systems",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override numeric.seed")
    parser.add_argument("--out", default=None, help="override output.directory")
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = parse_seed(args.seed, "--seed")
    if args.out is not None:
        cfg.out_dir = args.out
    os.makedirs(cfg.out_dir, exist_ok=True)

    dispatch = {
        "spectrum": task_spectrum,
        "lambda": task_lambda,
        "ldp": task_ldp,
        "simulate": task_simulate,
        "adiabatic": task_adiabatic,
        "balance": task_balance,
        "x0": task_x0,
    }
    dispatch[args.task](cfg, cfg.out_dir)
    write_manifest(os.path.join(cfg.out_dir, "manifest.json"), cfg, args.task)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
