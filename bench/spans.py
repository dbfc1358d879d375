"""Spans around the program's public functions, installed from outside.

The tracer replaces the names the CLI and the library look up at call
time (the functions ``lpvembed.cli`` imported, a few methods, and
``compile_scalar``/``integrate`` in the modules that import them) with
wrappers that record one span per call: name, start, end, parent span
and op id.  Spans stay in memory and are written out once at the end.
Self time (duration minus the time covered by child spans) and call
counts are aggregated per (op, layer) as spans close, so the summary
needs no second pass.  Nothing here changes the program's results.

Modules are reached through ``sys.modules``: ``lpvembed.factorize`` as
an attribute is the ``factorize`` function, because the package's
``__init__`` re-exports it under the submodule's name.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# names that lpvembed.cli imported -> layer name
CLI_LAYERS = {
    "factorize": "factorize.factorize",
    "extract_factor": "lpv.extract",
    "extract_element": "lpv.extract",
    "estimate_range": "lpv.estimate_range",
    "verify_embedding": "lpv.verify",
    "load_model_file": "modelfile.load_model_file",
    "save_artifact": "modelfile.save_artifact",
    "load_artifact": "modelfile.load_artifact",
    "simulate_nl": "sim.simulate_nl",
    "simulate_lpv_self_scheduled": "sim.simulate_lpv",
    "write_trajectory_csv": "sim.write_csv",
}
ROOT = "cli"


def _mod(name: str):
    return sys.modules[name]


class Tracer:
    """Span recorder; ``install``/``remove`` patch and restore the program."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []       # [span index, child seconds]
        self.op = -1
        # (op, layer) -> [self seconds, calls]; (op, counter) -> value
        self.layers: dict[tuple[int, str], list] = {}
        self.counters: dict[tuple[int, str], float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.span_start.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start[idx] = perf_counter()

    def _exit(self, name: str) -> None:
        t = perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        agg = self.layers.get((self.op, name))
        if agg is None:
            agg = self.layers[(self.op, name)] = [0.0, 0]
        agg[0] += dur - child
        agg[1] += 1

    def count(self, counter: str, value: float) -> None:
        key = (self.op, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def call(self, fn, *args):
        """Run ``fn`` inside the per-op root span."""
        self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(ROOT)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if after is not None:
                after(self, args, kwargs, out)
            return out
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        cli = _mod("lpvembed.cli")
        for attr, layer in CLI_LAYERS.items():
            self._patch(cli, attr, self.wrap(layer, getattr(cli, attr),
                                             _AFTER.get(layer)))
        lpv, sim = _mod("lpvembed.lpv"), _mod("lpvembed.sim")
        for owner, attr, layer in (
                (lpv.SchedulingMap, "evaluate", "lpv.sched_evaluate"),
                (lpv.LpvssModel, "matrices", "lpv.matrices"),
                (sim.InputSignal, "__call__", "sim.input")):
            self._patch(owner, attr, self.wrap(layer, getattr(owner, attr)))
        compile_scalar = _mod("lpvembed.expr").compile_scalar
        traced_compile = self.wrap("expr.compile", compile_scalar)
        for name, mod in list(sys.modules.items()):
            if (name.startswith("lpvembed.") and mod is not None
                    and getattr(mod, "compile_scalar", None) is compile_scalar):
                self._patch(mod, "compile_scalar", traced_compile)
        fz = _mod("lpvembed.factorize")
        self._patch(fz, "integrate", self.wrap(
            "quadrature.integrate", fz.integrate, _after_integrate))

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        tmp = path + ".tmp.npz"
        np.savez(tmp, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
        os.replace(tmp, path)

    @property
    def span_count(self) -> int:
        return len(self.span_start)


# -- counters read from arguments and results, outside the timed span ------

def _after_factorize(tr: Tracer, args, kwargs, fs) -> None:
    deferred = _mod("lpvembed.factorize").DeferredIntegral
    n = sum(isinstance(e, deferred)
            for block in (fs.A_bar, fs.B_bar, fs.C_bar, fs.D_bar)
            for row in block.entries for e in row)
    tr.count("factorize.deferred_entries", n)


def _after_extract(tr: Tracer, args, kwargs, out) -> None:
    m, _sm = out
    tr.count("lpv.np", m.np)
    for arr in (m.A, m.B, m.C, m.D):
        tr.count("lpv.coeff_nonzero", int(np.count_nonzero(arr)))
        tr.count("lpv.coeff_entries", arr.size)


def _after_range(tr: Tracer, args, kwargs, rb) -> None:
    sm = args[0]
    grid = rb.grid_per_dim
    tr.count("lpv.range_points", sum(grid ** len(fp) for fp in sm.footprints))


def _after_save(tr: Tracer, args, kwargs, out) -> None:
    tr.count("modelfile.artifact_bytes", os.path.getsize(args[0]))


def _after_integrate(tr: Tracer, args, kwargs, res) -> None:
    tr.count("quadrature.evaluations", res.evaluations)
    tr.count("quadrature.subdivisions", res.subdivisions)


def _after_simulate(tr: Tracer, args, kwargs, traj) -> None:
    tr.count("sim.output_samples", len(traj.t))


_AFTER = {
    "factorize.factorize": _after_factorize,
    "lpv.extract": _after_extract,
    "lpv.estimate_range": _after_range,
    "modelfile.save_artifact": _after_save,
    "sim.simulate_lpv": _after_simulate,
    "sim.simulate_nl": _after_simulate,
}


# -- per-layer metrics -----------------------------------------------------

# metric -> layer; a "_s" metric is the layer's self seconds per op
# that entered the layer, "_us" its self microseconds per call, "_calls"
# its calls per op that entered it
LAYER_TIMES = {
    "factorize.factorize_s": "factorize.factorize",
    "lpv.extract_s": "lpv.extract",
    "lpv.estimate_range_s": "lpv.estimate_range",
    "lpv.verify_s": "lpv.verify",
    "quadrature.integrate_s": "quadrature.integrate",
    "sim.simulate_nl_s": "sim.simulate_nl",
    "sim.simulate_lpv_s": "sim.simulate_lpv",
    "sim.write_csv_s": "sim.write_csv",
    "modelfile.load_model_file_s": "modelfile.load_model_file",
    "modelfile.save_artifact_s": "modelfile.save_artifact",
    "modelfile.load_artifact_s": "modelfile.load_artifact",
    "expr.compile_s": "expr.compile",
    "cli.self_s": ROOT,
}
LAYER_PER_CALL_US = {
    "lpv.sched_evaluate_us": "lpv.sched_evaluate",
    "lpv.matrices_us": "lpv.matrices",
}
LAYER_CALLS = {
    "lpv.sched_evaluate_calls": "lpv.sched_evaluate",
    "lpv.matrices_calls": "lpv.matrices",
    "quadrature.integrate_calls": "quadrature.integrate",
    "expr.compile_calls": "expr.compile",
}
# counter -> (unit, the layer whose ops it is averaged over)
COUNTERS = {
    "factorize.deferred_entries": ("count", "factorize.factorize"),
    "lpv.np": ("count", "lpv.extract"),
    "lpv.range_points": ("count", "lpv.estimate_range"),
    "modelfile.artifact_bytes": ("bytes", "modelfile.save_artifact"),
    "quadrature.evaluations": ("count", "quadrature.integrate"),
    "quadrature.subdivisions": ("count", "quadrature.integrate"),
}


def _ops_with(tr: Tracer, ops, layer: str) -> list[int]:
    return [op for op in ops if (op, layer) in tr.layers]


def summary(tr: Tracer, time_ops, count_ops) -> dict:
    """Per-layer metrics as {name: (value, unit, samples)}.

    Times average over ``time_ops``; counts over ``count_ops``, a fixed
    op sequence, so that they repeat exactly for one seed.  The samples
    figure is the number of ops (or calls, for per-call times) averaged.
    """
    out = {}
    for metric, layer in LAYER_TIMES.items():
        ops = _ops_with(tr, time_ops, layer)
        total = sum(tr.layers[(op, layer)][0] for op in ops)
        out[metric] = (total / len(ops) if ops else 0.0, "s", len(ops))
    for metric, layer in LAYER_PER_CALL_US.items():
        ops = _ops_with(tr, time_ops, layer)
        secs = sum(tr.layers[(op, layer)][0] for op in ops)
        calls = sum(tr.layers[(op, layer)][1] for op in ops)
        out[metric] = (1e6 * secs / calls if calls else 0.0, "us", calls)
    for metric, layer in LAYER_CALLS.items():
        ops = _ops_with(tr, count_ops, layer)
        calls = sum(tr.layers[(op, layer)][1] for op in ops)
        out[metric] = (calls / len(ops) if ops else 0.0, "count", len(ops))
    for counter, (unit, layer) in COUNTERS.items():
        ops = _ops_with(tr, count_ops, layer)
        total = sum(tr.counters.get((op, counter), 0) for op in ops)
        out[counter] = (total / len(ops) if ops else 0.0, unit, len(ops))

    ops = _ops_with(tr, count_ops, "lpv.extract")
    nonzero = sum(tr.counters[(op, "lpv.coeff_nonzero")] for op in ops)
    entries = sum(tr.counters[(op, "lpv.coeff_entries")] for op in ops)
    out["lpv.coeff_nonzero_ratio"] = (nonzero / entries if entries else 0.0,
                                      "1", len(ops))

    # the self-scheduled rhs evaluates p once per call, the nonlinear rhs
    # reads u(t) once per call; both also do so once per output sample
    rhs, sim_ops = 0, 0
    for op in count_ops:
        for sim_layer, per_rhs in (("sim.simulate_lpv", "lpv.sched_evaluate"),
                                   ("sim.simulate_nl", "sim.input")):
            if (op, sim_layer) in tr.layers:
                sim_ops += 1
                rhs += (tr.layers[(op, per_rhs)][1]
                        - tr.counters[(op, "sim.output_samples")])
    out["sim.rhs_calls"] = (rhs / sim_ops if sim_ops else 0.0, "count", sim_ops)

    # share of the traced op time spent in named layers rather than in
    # the CLI's own code; the root span's duration is the sum of all self
    # times in its op
    timed = set(time_ops)
    traced = sum(agg[0] for (op, _), agg in tr.layers.items() if op in timed)
    cli_self = sum(tr.layers[(op, ROOT)][0] for op in time_ops)
    out["trace.named_share"] = (1.0 - cli_self / traced, "1", len(time_ops))
    return out
