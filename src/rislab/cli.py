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

Every run writes a ``manifest.json`` with the config hash, the seed, the
defaults that were filled in and the versions of rislab, numpy and Python;
reruns with the same inputs are byte-identical.
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


def _write_csv(path: str, header: list[str], rows) -> None:
    """The CSV file at path: its header, then every row of the iterable rows."""
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


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
    rows = [
        [_f(s), _f(cfg.model.beta(float(s))), _f(lam), int(z), *map(_f, np.diagonal(rho).real)]
        for s, lam, z, rho in zip(s_grid, decs.spectral_radius, decs.period, decs.rho)
    ]
    populations = [f"rho_{i}{i}" for i in range(cfg.model.dim_sys)]
    _write_csv(os.path.join(out, "spectrum.csv"),
               ["s", "beta", "spectral_radius", "period", *populations], rows)
    _write_csv(os.path.join(out, "beta_curves.csv"), ["s", "beta"], [r[:2] for r in rows])


def task_lambda(cfg: RunConfig, out: str) -> None:
    ev = mgfldp.LambdaEvaluator(cfg.model, cfg.s_nodes)
    _write_csv(os.path.join(out, "lambda.csv"), ["alpha", "Lambda"],
               ([_f(a), _f(ev(float(a)))] for a in np.linspace(*cfg.alpha_grid)))
    _write_csv(os.path.join(out, "lambda_derivatives.csv"), ["d1_at_0", "d2_at_0"],
               [list(map(_f, ev.derivatives_at_zero()))])


def task_ldp(cfg: RunConfig, out: str) -> None:
    ev = mgfldp.LambdaEvaluator(cfg.model, cfg.s_nodes)
    points = (mgfldp.legendre_point(ev, float(a)) for a in np.linspace(-2.0, 1.0, 31))
    _write_csv(os.path.join(out, "lambda_star.csv"), ["x", "Lambda_star"],
               (list(map(_f, p)) for p in points))


def task_simulate(cfg: RunConfig, out: str) -> None:
    """Per T of ``T_list``: sampled trajectories, their CLT histogram and,
    in ``landauer.csv``, the exact mean of the sampled varsigma,
    sigma_tot = Delta S + E(Delta_y) (Landauer's balance, from the table).

    The distinct T are sampled in ascending order from one ``UniformBlocks``,
    so the uniforms past the second-largest T's rows are drawn only after
    the rows every shorter chain reads are dropped; the files are those of
    one full ``trajectory_uniforms`` draw.
    """
    setup = _entropic_setup(cfg, _initial_state(cfg))
    d1, d2 = mgfldp.lambda_derivatives_at_zero(cfg.model, cfg.s_nodes)
    nodes = fullstats.ProtocolNodes(cfg.model, cfg.T_list)
    if d2 > CLT_DEGENERATE_D2:
        bins = np.linspace(-4 * np.sqrt(d2), 4 * np.sqrt(d2), 42)
    else:
        bins = 41
    uniforms = fullstats.UniformBlocks(cfg.seed, cfg.n, cfg.T_list)
    for T in sorted(set(cfg.T_list)):
        samp = fullstats.sample_trajectories(
            cfg.model, setup, T, cfg.n, seed=cfg.seed, nodes=nodes, uniforms=uniforms
        )
        if cfg.write_csv:
            fullstats.write_trajectories_csv(
                os.path.join(out, f"trajectories_T{T}.csv"), samp
            )
        standardized = (samp.delta_y - T * d1) / np.sqrt(T)
        counts, edges = np.histogram(standardized, bins=bins)
        density = counts / (cfg.n * np.diff(edges))
        _write_csv(os.path.join(out, f"clt_hist_T{T}.csv"),
                   ["bin_left", "bin_right", "count", "density"],
                   ([_f(a), _f(b), int(c), _f(d)]
                    for a, b, c, d in zip(edges, edges[1:], counts, density)))
    terms = [fullstats._landauer_terms(nodes, setup.rho_i, T) for T in cfg.T_list]
    _write_csv(os.path.join(out, "landauer.csv"), ["T", "delta_S", "beta_heat", "sigma_tot"],
               ([T, _f(ds), _f(q), _f(ds + q)] for T, (ds, q) in zip(cfg.T_list, terms)))


def task_adiabatic(cfg: RunConfig, out: str) -> None:
    fam = adiabatic.AdiabaticFamily(cfg.model, cfg.alpha)
    rho_i = _initial_state(cfg)
    rows = []
    for T in cfg.T_list:
        exact = adiabatic.exact_deformed_chain(fam, rho_i, T)
        approx = adiabatic.deformed_adiabatic_state(fam, rho_i, T)
        rows.append([T, _f(cfg.alpha), _f(trace_norm(exact - approx))])
    _write_csv(os.path.join(out, "adiabatic.csv"), ["T", "alpha", "residual"], rows)


def task_balance(cfg: RunConfig, out: str) -> None:
    setup = _entropic_setup(cfg, _initial_state(cfg))
    nodes = fullstats.ProtocolNodes(cfg.model, [cfg.T])
    meas = fullstats.enumerate_measure(cfg.model, setup, cfg.T, nodes=nodes)
    if cfg.write_csv:
        fullstats.write_measure_csv(os.path.join(out, "measure.csv"), meas)
    rhs = fullstats.balance_rhs(cfg.model, setup, meas, cfg.T, nodes=nodes)
    worst = float("nan")
    if rhs is not None:
        seen = meas.p_forward > 0
        log_ratio = np.log(meas.p_forward[seen] / meas.p_backward[seen])
        worst = float(np.max(np.abs(log_ratio - rhs[seen]), initial=0.0))
    _write_csv(os.path.join(out, "balance.csv"),
               ["applicable", "sigma_tot", "max_balance_defect"],
               [[str(rhs is not None), _f(meas.entropy_production()), _f(worst)]])


def task_x0(cfg: RunConfig, out: str) -> None:
    m = cfg.model
    rho_i = _initial_state(cfg)
    setup = _entropic_setup(cfg, rho_i)
    nodes = fullstats.ProtocolNodes(m, cfg.T_list)
    # s = 1 is the last node of every chain
    ends = np.stack([model.kraus_family(m, 0.0).deformed_matrix(0.0), nodes.reduced[-1]])
    rho0, rho1 = spectral.peripheral_decompositions(ends).rho
    grid = [(-0.5, -0.5), (-0.5, 0.5), (0.0, 0.3), (0.5, -0.5), (0.5, 0.5)]
    limits = [mgfldp.stationary_pair_mgf_limit(rho0, rho1, rho_i, *a).real for a in grid]
    rows = []
    for T in cfg.T_list:
        finite = mgfldp.mgf_pair(m, setup, T, *np.array(grid).T, nodes=nodes).real
        for (a1, a2), fin, lim in zip(grid, finite, limits):
            rows.append([T, _f(a1), _f(a2), _f(fin), _f(lim), _f(abs(fin - lim))])
    _write_csv(os.path.join(out, "x0.csv"),
               ["T", "alpha1", "alpha2", "finite_T", "limit", "abs_error"], rows)


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

    # looked up when called, so a rebound module attribute (a tracer's wrapper) runs
    globals()["task_" + args.task](cfg, cfg.out_dir)
    write_manifest(os.path.join(cfg.out_dir, "manifest.json"), cfg, args.task)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
