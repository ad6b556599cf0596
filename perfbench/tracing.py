"""Outside-in tracing of rislab for the benchmark's traced run.

The library itself carries no instrumentation. ``installed`` wraps the
public functions listed in ``LAYERS`` from outside: each wrapper records a
span (name, start, end, parent span, operation) in a ``Tracer``. Modules
bind functions with ``from .model import reduced_map``, so a wrapper
replaces the name in every ``rislab.*`` namespace that holds the original
object, and every replaced name is restored when the context exits.

``rislab.fullstats`` alone sees a proxy of ``numpy`` whose
``random.Philox`` and ``random.Generator`` are timed; this separates the
sampler's random streams from its stepping.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy

# (module, attribute path, span name). A dotted attribute path names a method.
LAYERS = [
    ("linalg", "as_complex", "linalg.as_complex"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "general_eig", "linalg.general_eig"),
    ("linalg", "kraus_to_matrix", "linalg.kraus_to_matrix"),
    ("linalg", "SuperOperator.__post_init__", "linalg.SuperOperator.validate"),
    ("model", "joint_unitary", "model.joint_unitary"),
    ("model", "kraus_family", "model.kraus_family"),
    ("model", "reduced_map", "model.reduced_map"),
    ("model", "deformed_map", "model.deformed_map"),
    ("spectral", "peripheral_decomposition", "spectral.peripheral_decomposition"),
    ("spectral", "invariant_state", "spectral.invariant_state"),
    ("adiabatic", "AdiabaticFamily.decomposition", "adiabatic.decomposition"),
    ("adiabatic", "intertwiner", "adiabatic.intertwiner"),
    ("adiabatic", "theta_integral", "adiabatic.theta_integral"),
    ("adiabatic", "exact_deformed_chain", "adiabatic.exact_deformed_chain"),
    ("fullstats", "step_operators", "fullstats.step_operators"),
    ("fullstats", "evolved_state", "fullstats.evolved_state"),
    ("fullstats", "resolve_final_observable", "fullstats.resolve_final_observable"),
    ("fullstats", "balance_applicable", "fullstats.balance_applicable"),
    ("fullstats", "balance_rhs", "fullstats.balance_rhs"),
    ("fullstats", "enumerate_measure", "fullstats.enumerate_measure"),
    ("fullstats", "sample_trajectories", "fullstats.sample_trajectories"),
    ("fullstats", "write_trajectories_csv", "fullstats.write_csv"),
    ("fullstats", "write_measure_csv", "fullstats.write_csv"),
    ("mgfldp", "LambdaEvaluator.__init__", "mgfldp.LambdaEvaluator.init"),
    ("mgfldp", "LambdaEvaluator.__call__", "mgfldp.lambda"),
    ("mgfldp", "LambdaEvaluator.lambda_nodes", "mgfldp.lambda_nodes"),
    ("mgfldp", "LambdaEvaluator.support_window", "mgfldp.support_window"),
    ("mgfldp", "legendre_transform", "mgfldp.legendre_transform"),
    ("mgfldp", "lambda_derivatives_at_zero", "mgfldp.lambda_derivatives_at_zero"),
    ("mgfldp", "mgf_pair", "mgfldp.mgf_pair"),
    ("config", "load_config", "config.load_config"),
    ("cli", "task_spectrum", "cli.task"),
    ("cli", "task_lambda", "cli.task"),
    ("cli", "task_ldp", "cli.task"),
    ("cli", "task_simulate", "cli.task"),
    ("cli", "task_adiabatic", "cli.task"),
    ("cli", "task_balance", "cli.task"),
    ("cli", "task_x0", "cli.task"),
]
RNG = "fullstats.rng"


class Tracer:
    """In-memory span store.

    Recording a span only appends to flat arrays; ``Summary`` derives the
    per-name statistics afterwards. A span's self time is its duration
    minus the durations of its direct child spans. Spans of one benchmark
    operation share its ``op`` index.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op: str) -> None:
        self.ops.append(op)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def enter(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(len(self.ops) - 1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def save(self, path: str) -> None:
        """Write every span as arrays (names indexed by ``name``)."""
        numpy.savez_compressed(
            path,
            names=numpy.array(self.names),
            ops=numpy.array(self.ops),
            name=numpy.frombuffer(self.span_name, dtype=numpy.int32),
            parent=numpy.frombuffer(self.span_parent, dtype=numpy.int32),
            op=numpy.frombuffer(self.span_op, dtype=numpy.int32),
            start=numpy.frombuffer(self.span_start),
            end=numpy.frombuffer(self.span_end),
        )


class Summary:
    """Per-name calls, self time and durations of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self._ids = dict(tracer._ids)
        self.ops = list(tracer.ops)
        self.counters = dict(tracer.counters)
        n_names = len(tracer.names)
        self.name = numpy.frombuffer(tracer.span_name, dtype=numpy.int32).copy()
        self.parent = numpy.frombuffer(tracer.span_parent, dtype=numpy.int32).copy()
        self.op = numpy.frombuffer(tracer.span_op, dtype=numpy.int32).copy()
        self.dur = numpy.frombuffer(tracer.span_end) - numpy.frombuffer(tracer.span_start)
        has_parent = self.parent >= 0
        child = numpy.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self._calls = numpy.bincount(self.name, minlength=n_names)
        self._self = numpy.bincount(self.name, weights=self.dur - child, minlength=n_names)
        self._total = numpy.bincount(self.name, weights=self.dur, minlength=n_names)

    def calls(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(self._calls[i])

    def self_s(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._self[i])

    def durations(self, name: str) -> numpy.ndarray:
        return self.dur[self.name == self._ids.get(name, -1)]

    def child_calls(self, parent: str, child: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        pid, cid = self._ids.get(parent, -1), self._ids.get(child, -1)
        mask = (self.name == cid) & (self.parent >= 0)
        return int(numpy.count_nonzero(self.name[self.parent[mask]] == pid))

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, self time and total time of every span name."""
        return {
            n: {"calls": int(self._calls[i]), "self_s": float(self._self[i]),
                "total_s": float(self._total[i])}
            for n, i in sorted(self._ids.items())
        }

    def calls_by_op(self) -> dict[str, int]:
        names = {i: n for n, i in self._ids.items()}
        pairs, counts = numpy.unique(
            numpy.stack([self.op, self.name]), axis=1, return_counts=True
        )
        return {
            f"{self.ops[o]}/{names[n]}": int(c)
            for (o, n), c in zip(pairs.T.tolist(), counts.tolist())
        }


def _timed(tracer: Tracer, name: str, fn):
    name_id = tracer.id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(idx)

    return wrapper


def _timed_csv_writer(tracer: Tracer, name: str, fn):
    name_id = tracer.id(name)

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        idx = tracer.enter(name_id)
        try:
            out = fn(path, *args, **kwargs)
        finally:
            tracer.exit(idx)
        tracer.add(name + ".bytes", os.path.getsize(path))
        return out

    return wrapper


class _TimedGenerator:
    def __init__(self, tracer: Tracer, gen):
        self._gen = gen
        self.random = _timed(tracer, RNG, gen.random)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


class _RandomProxy:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._philox = _timed(tracer, RNG, numpy.random.Philox)
        self._generator = _timed(tracer, RNG, numpy.random.Generator)

    def Philox(self, *args, **kwargs):
        self._tracer.add(RNG + ".streams", 1)
        return self._philox(*args, **kwargs)

    def Generator(self, *args, **kwargs):
        return _TimedGenerator(self._tracer, self._generator(*args, **kwargs))

    def __getattr__(self, attr):
        return getattr(numpy.random, attr)


class _NumpyProxy:
    def __init__(self, tracer: Tracer):
        self.random = _RandomProxy(tracer)

    def __getattr__(self, attr):
        return getattr(numpy, attr)


def _rislab_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "rislab" or name.startswith("rislab."))
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function of the loaded rislab for the context."""
    import rislab

    restore: list[tuple[object, str, object]] = []
    modules = _rislab_modules()
    try:
        for mod_name, path, span in LAYERS:
            owner = getattr(rislab, mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            make = _timed_csv_writer if span == "fullstats.write_csv" else _timed
            wrapper = make(tracer, span, original)
            if cls_path:
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        restore.append((rislab.fullstats, "np", rislab.fullstats.np))
        rislab.fullstats.np = _NumpyProxy(tracer)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def percentile_us(durations: numpy.ndarray, q: float) -> float:
    return float(numpy.quantile(durations, q)) * 1e6 if durations.size else 0.0


def tail_quantile(n: int) -> float:
    """Highest quantile with at least ten samples beyond it (the median if none)."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5
