"""JSON run configuration for the command line interface.

A run is described by a single JSON document with four sections:

* ``model``: either a preset (``"fd"`` or ``"rwa"``) with a schedule
  choice, or explicit matrices (complex entries encoded as ``[re, im]``);
* ``numeric``: grids, protocol lengths, sample counts, and the seed;
* ``output``: target directory and CSV toggles.

Validation reports the precise JSON path of the first offending field,
and a key that its object does not read is refused as an unknown key.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .linalg import LinalgError, assert_hermitian
from .model import (
    ConstantSchedule,
    RISModel,
    TabulatedSchedule,
    TanhPolySchedule,
    beta_schedule_1,
    beta_schedule_2,
    fd_model,
    rwa_model,
)

DEFAULTS = {
    "numeric.s_nodes": 201,
    "numeric.alpha_grid": [-3.0, 2.0, 101],
    "numeric.T_list": [50, 100, 200, 400, 800],
    "numeric.seed": 0,
    "numeric.n": 2000,
    "numeric.T": 3,
    "numeric.alpha": 0.5,
    "output.directory": "out",
    "output.write_csv": True,
}
# How far numeric.rho_i may be from PSD and from unit trace.
STATE_TOL = 1e-10
# The keys each object reads, by its path ("" at the top level), a schedule's by
# its kind: any other key is refused, so a misspelt one cannot fall back to a default.
KNOWN_KEYS = {
    "": ("model", "numeric", "output"),
    "model": ("preset", "schedule", "tau", "counting", "h_sys", "h_env", "coupling",
              "dim_sys", "dim_env"),
    "numeric": ("s_nodes", "alpha_grid", "T_list", "seed", "n", "T", "alpha", "rho_i"),
    "output": ("directory", "write_csv"),
    "schedule.constant": ("kind", "value"),
    "schedule.tanh_poly": ("kind", "tanh_terms", "poly"),
    "schedule.tabulated": ("kind", "nodes", "values"),
}


class ConfigError(ValueError):
    pass


def _object(value, path: str, entry: str) -> dict:
    """value, the object at path, checked to hold only keys KNOWN_KEYS[entry] lists."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'top level'}: expected a JSON object")
    for key in value:
        if key not in KNOWN_KEYS[entry]:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    return value


def _complex_entry(value, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(v, (int, float)) for v in parts):
        raise ConfigError(f"{path}: expected a number or [re, im] pair, got {value!r}")
    if not np.isfinite(parts).all():
        raise ConfigError(f"{path}: expected finite parts, got {value!r}")
    return complex(*parts)


def parse_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nested list matrix")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise ConfigError(f"{path}[{i}]: matrix must be square")
        rows.append(
            [_complex_entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
        )
    return np.asarray(rows, dtype=complex)


def _finite_reals(values, path: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{path}: expected a list of finite numbers, got {values!r}")
    return tuple(_finite_real(x, f"{path}[{i}]") for i, x in enumerate(values))


def _finite_real(value, path: str) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not np.isfinite(value)
    ):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str, minimum: int) -> int:
    """An integer (or integral float) no smaller than ``minimum``."""
    integral = isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral or value < minimum:
        raise ConfigError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return int(value)


def parse_state(value, path: str, dim: int) -> np.ndarray:
    """A dim x dim density matrix: Hermitian, PSD and of unit trace."""
    rho = parse_matrix(value, path)
    if rho.shape != (dim, dim):
        raise ConfigError(f"{path}: expected a {dim}x{dim} matrix, got {rho.shape}")
    try:
        w = np.linalg.eigvalsh(assert_hermitian(rho))
    except LinalgError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if w.min() < -STATE_TOL:
        raise ConfigError(f"{path}: not positive semidefinite (eigenvalue {w.min():.3e})")
    if abs(np.trace(rho) - 1.0) > STATE_TOL:
        raise ConfigError(f"{path}: trace {np.trace(rho).real!r} is not 1")
    return rho


def parse_seed(value, path: str) -> int:
    """An integer seed in [0, 2**64), the key range of the sampler streams."""
    seed = _integer(value, path, 0)
    if seed >= 2**64:
        raise ConfigError(f"{path}: expected an integer in [0, 2**64), got {value!r}")
    return seed


def parse_schedule(value, path: str):
    if isinstance(value, str):
        if value == "beta1":
            return beta_schedule_1()
        if value == "beta2":
            return beta_schedule_2()
        raise ConfigError(f"{path}: unknown schedule name {value!r}")
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(f"{path}: expected a schedule name or object with 'kind'")
    kind = value["kind"]
    if f"schedule.{kind}" not in KNOWN_KEYS:
        raise ConfigError(f"{path}.kind: unknown schedule kind {kind!r}")
    _object(value, path, f"schedule.{kind}")
    if kind == "constant":
        if "value" not in value:
            raise ConfigError(f"{path}.value: required for constant schedules")
        return ConstantSchedule(_finite_real(value["value"], f"{path}.value"))
    if kind == "tanh_poly":
        terms = value.get("tanh_terms", [])
        if not isinstance(terms, list):
            raise ConfigError(f"{path}.tanh_terms: expected a list of [c, r] pairs")
        pairs = []
        for i, term in enumerate(terms):
            if not (isinstance(term, list) and len(term) == 2):
                raise ConfigError(
                    f"{path}.tanh_terms[{i}]: expected a [c, r] pair, got {term!r}"
                )
            pairs.append(_finite_reals(term, f"{path}.tanh_terms[{i}]"))
        poly = _finite_reals(value.get("poly", []), f"{path}.poly")
        return TanhPolySchedule(tanh_terms=tuple(pairs), poly=poly)
    nodes = _finite_reals(value.get("nodes"), f"{path}.nodes")
    vals = _finite_reals(value.get("values"), f"{path}.values")
    if len(nodes) < 2 or len(nodes) != len(vals):
        raise ConfigError(
            f"{path}: tabulated schedules need equal-length 'nodes' and "
            "'values' with at least 2 entries"
        )
    if any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise ConfigError(f"{path}.nodes: must be strictly increasing")
    return TabulatedSchedule(nodes, vals)


@dataclass
class RunConfig:
    model: RISModel
    raw: dict
    s_nodes: int
    alpha_grid: tuple[float, float, int]
    T_list: list[int]
    seed: int
    n: int
    T: int
    alpha: float
    rho_i: np.ndarray | None
    out_dir: str
    write_csv: bool
    defaults_used: list[str] = field(default_factory=list)


def _get(section: dict, key: str, path: str, defaults_used: list[str]):
    if key in section:
        return section[key]
    dotted = f"{path}.{key}"
    if dotted in DEFAULTS:
        defaults_used.append(dotted)
        return DEFAULTS[dotted]
    raise ConfigError(f"{dotted}: missing required field")


def load_config(path_or_dict) -> RunConfig:
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    _object(raw, "", "")
    msec = _object(raw.get("model"), "model", "model")
    schedule = parse_schedule(msec.get("schedule", "beta1"), "model.schedule")
    preset = msec.get("preset")
    if preset is None:
        for key in ("h_sys", "h_env", "coupling", "tau"):
            if key not in msec:
                raise ConfigError(f"model.{key}: required without a preset")
    tau = _finite_real(msec.get("tau", 0.5), "model.tau")
    if tau <= 0:
        raise ConfigError(f"model.tau: expected a positive number, got {tau!r}")
    if preset == "fd":
        model = fd_model(schedule, tau=tau)
    elif preset == "rwa":
        model = rwa_model(schedule, tau=tau)
    elif preset is None:
        h_sys = parse_matrix(msec["h_sys"], "model.h_sys")
        h_env = parse_matrix(msec["h_env"], "model.h_env")
        v = parse_matrix(msec["coupling"], "model.coupling")
        dS = _integer(msec.get("dim_sys", h_sys.shape[0]), "model.dim_sys", 1)
        dE = _integer(msec.get("dim_env", h_env.shape[0]), "model.dim_env", 1)
        shapes = {"h_sys": (h_sys, dS), "h_env": (h_env, dE), "coupling": (v, dS * dE)}
        for key, (mat, dim) in shapes.items():
            if mat.shape != (dim, dim):
                raise ConfigError(
                    f"model.{key}: expected shape {(dim, dim)}, got {mat.shape}"
                )
            try:
                assert_hermitian(mat)
            except LinalgError as exc:
                raise ConfigError(f"model.{key}: {exc}") from None
        model = RISModel(
            dim_sys=dS,
            dim_env=dE,
            h_sys=h_sys,
            h_env=lambda s, _m=h_env: _m,
            coupling=lambda s, _m=v: _m,
            beta=schedule,
            tau=tau,
        )
    else:
        raise ConfigError(f"model.preset: unknown preset {preset!r}")
    counting = msec.get("counting", "beta_hE")
    if counting != "beta_hE":
        raise ConfigError("model.counting: only 'beta_hE' is supported here")

    defaults_used: list[str] = []
    nsec = _object(raw.get("numeric", {}), "numeric", "numeric")
    osec = _object(raw.get("output", {}), "output", "output")

    ag = _get(nsec, "alpha_grid", "numeric", defaults_used)
    if not (isinstance(ag, list) and len(ag) == 3):
        raise ConfigError("numeric.alpha_grid: expected [lo, hi, count]")
    T_list = _get(nsec, "T_list", "numeric", defaults_used)
    if not (isinstance(T_list, list) and T_list):
        raise ConfigError(f"numeric.T_list: expected a non-empty list, got {T_list!r}")
    rho_i = None
    if "rho_i" in nsec:
        rho_i = parse_state(nsec["rho_i"], "numeric.rho_i", model.dim_sys)
    out_dir = _get(osec, "directory", "output", defaults_used)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output.directory: expected a non-empty string, got {out_dir!r}")
    write_csv = _get(osec, "write_csv", "output", defaults_used)
    if not isinstance(write_csv, bool):
        raise ConfigError(f"output.write_csv: expected true or false, got {write_csv!r}")

    def numeric(key):
        return _get(nsec, key, "numeric", defaults_used)

    return RunConfig(
        model=model,
        raw=raw,
        s_nodes=_integer(numeric("s_nodes"), "numeric.s_nodes", 2),
        alpha_grid=(
            _finite_real(ag[0], "numeric.alpha_grid[0]"),
            _finite_real(ag[1], "numeric.alpha_grid[1]"),
            _integer(ag[2], "numeric.alpha_grid[2]", 1),
        ),
        T_list=[
            _integer(t, f"numeric.T_list[{i}]", 1) for i, t in enumerate(T_list)
        ],
        seed=parse_seed(numeric("seed"), "numeric.seed"),
        n=_integer(numeric("n"), "numeric.n", 1),
        T=_integer(numeric("T"), "numeric.T", 1),
        alpha=_finite_real(numeric("alpha"), "numeric.alpha"),
        rho_i=rho_i,
        out_dir=out_dir,
        write_csv=write_csv,
        defaults_used=defaults_used,
    )


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, cfg: RunConfig, task: str):
    """The run's task, config hash, seed and filled-in defaults, and the
    versions of rislab, numpy and Python that produced its outputs."""
    manifest = {
        "task": task,
        "config_hash": config_hash(cfg.raw),
        "seed": cfg.seed,
        "defaults_used": sorted(cfg.defaults_used),
        "defaults": {k: DEFAULTS[k] for k in sorted(DEFAULTS)},
        "versions": {
            "numpy": np.__version__,
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "rislab": __version__,
        },
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
