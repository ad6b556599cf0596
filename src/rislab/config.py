"""JSON run configuration for the command line interface.

A run is described by a single JSON document with four sections:

* ``model``: either a preset (``"fd"`` or ``"rwa"``) with a schedule
  choice, or explicit matrices (complex entries encoded as ``[re, im]``);
* ``numeric``: grids, protocol lengths, sample counts, and the seed;
* ``output``: target directory and CSV toggles.

Validation reports the precise JSON path of the first offending field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

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


class ConfigError(ValueError):
    pass


def _complex_entry(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{path}: expected a number or [re, im] pair, got {value!r}")


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
    if not isinstance(values, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x)
        for x in values
    ):
        raise ConfigError(f"{path}: expected a list of finite numbers, got {values!r}")
    return tuple(float(x) for x in values)


def parse_seed(value, path: str) -> int:
    """An integer seed in [0, 2**64), the key range of the sampler streams."""
    integral = isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral or not 0 <= value < 2**64:
        raise ConfigError(f"{path}: expected an integer in [0, 2**64), got {value!r}")
    return int(value)


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
    if kind == "constant":
        if "value" not in value:
            raise ConfigError(f"{path}.value: required for constant schedules")
        return ConstantSchedule(float(value["value"]))
    if kind == "tanh_poly":
        terms = tuple(
            (float(c), float(r)) for c, r in value.get("tanh_terms", [])
        )
        poly = tuple(float(p) for p in value.get("poly", []))
        return TanhPolySchedule(tanh_terms=terms, poly=poly)
    if kind == "tabulated":
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
    raise ConfigError(f"{path}.kind: unknown schedule kind {kind!r}")


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
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    msec = raw.get("model")
    if not isinstance(msec, dict):
        raise ConfigError("model: required section missing or not an object")
    schedule = parse_schedule(msec.get("schedule", "beta1"), "model.schedule")
    preset = msec.get("preset")
    if preset == "fd":
        model = fd_model(schedule, tau=float(msec.get("tau", 0.5)))
    elif preset == "rwa":
        model = rwa_model(schedule, tau=float(msec.get("tau", 0.5)))
    elif preset is None:
        for key in ("h_sys", "h_env", "coupling", "tau"):
            if key not in msec:
                raise ConfigError(f"model.{key}: required without a preset")
        h_sys = parse_matrix(msec["h_sys"], "model.h_sys")
        h_env = parse_matrix(msec["h_env"], "model.h_env")
        v = parse_matrix(msec["coupling"], "model.coupling")
        dS = int(msec.get("dim_sys", h_sys.shape[0]))
        dE = int(msec.get("dim_env", h_env.shape[0]))
        if v.shape != (dS * dE, dS * dE):
            raise ConfigError(
                f"model.coupling: expected shape {(dS * dE, dS * dE)}, got {v.shape}"
            )
        model = RISModel(
            dim_sys=dS,
            dim_env=dE,
            h_sys=h_sys,
            h_env=lambda s, _m=h_env: _m,
            coupling=lambda s, _m=v: _m,
            beta=schedule,
            tau=float(msec["tau"]),
        )
    else:
        raise ConfigError(f"model.preset: unknown preset {preset!r}")
    counting = msec.get("counting", "beta_hE")
    if counting != "beta_hE":
        raise ConfigError("model.counting: only 'beta_hE' is supported here")

    defaults_used: list[str] = []
    nsec = raw.get("numeric", {})
    if not isinstance(nsec, dict):
        raise ConfigError("numeric: expected an object")
    osec = raw.get("output", {})
    if not isinstance(osec, dict):
        raise ConfigError("output: expected an object")

    ag = _get(nsec, "alpha_grid", "numeric", defaults_used)
    if not (isinstance(ag, list) and len(ag) == 3):
        raise ConfigError("numeric.alpha_grid: expected [lo, hi, count]")
    rho_i = None
    if "rho_i" in nsec:
        rho_i = parse_matrix(nsec["rho_i"], "numeric.rho_i")

    return RunConfig(
        model=model,
        raw=raw,
        s_nodes=int(_get(nsec, "s_nodes", "numeric", defaults_used)),
        alpha_grid=(float(ag[0]), float(ag[1]), int(ag[2])),
        T_list=[int(t) for t in _get(nsec, "T_list", "numeric", defaults_used)],
        seed=parse_seed(
            _get(nsec, "seed", "numeric", defaults_used), "numeric.seed"
        ),
        n=int(_get(nsec, "n", "numeric", defaults_used)),
        T=int(_get(nsec, "T", "numeric", defaults_used)),
        alpha=float(_get(nsec, "alpha", "numeric", defaults_used)),
        rho_i=rho_i,
        out_dir=str(_get(osec, "directory", "output", defaults_used)),
        write_csv=bool(_get(osec, "write_csv", "output", defaults_used)),
        defaults_used=defaults_used,
    )


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, cfg: RunConfig, task: str, extra: dict[str, Any] | None = None):
    manifest = {
        "task": task,
        "config_hash": config_hash(cfg.raw),
        "seed": cfg.seed,
        "defaults_used": sorted(cfg.defaults_used),
        "defaults": {k: DEFAULTS[k] for k in sorted(DEFAULTS)},
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
