"""One workload process: set-up, then CLI verbs in a closed loop.

``run.py`` starts this script in a fresh working directory, once per
set-up sample (``--setup-only``) and once for the measured run.  Every
op is one CLI verb called in-process through ``lpvembed.cli.main(argv)``
with stdout captured, from a single client that issues the next op
when the previous one returns.  The script writes what it measured to
``--out``; it checks nothing itself beyond exit codes and output
hashes, so checking cannot slow the ops.

Set-up is process start (``--t-spawn``, taken by the parent on the same
monotonic clock just before the spawn) to the first timed op: the
import, writing the generated ``.nlss`` files and, where the workload
has them, the conversions that build its artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import traceback
from dataclasses import dataclass
from time import perf_counter

import gen

# Every convert passes --grid 101.  At the default of 10001 points per
# dimension, any scheduling entry with a two-component footprint (each
# chain coupling sin(x_j - x_i), each network cross term) needs 10001^2
# grid points, over the range budget of 1e7, and convert exits 3.
GRID = "101"

WORKLOADS = ("chain_convert", "chain_simulate", "quad_fallback")


@dataclass
class Op:
    kind: str                       # convert | simulate_lpv | simulate_nl
    key: str                        # output file; repeats of an op share it
    argv: list
    case: gen.Case
    scenario: gen.Scenario | None = None


def _convert(case: gen.Case) -> Op:
    out = case.name + ".json"
    return Op("convert", out, ["convert", case.name + ".nlss", "-o", out,
                               "--grid", GRID], case)


def _simulate(case: gen.Case, sc: gen.Scenario, lpv: bool) -> Op:
    src = case.name + (".json" if lpv else ".nlss")
    out = f"{case.name}.{'lpv' if lpv else 'nl'}.csv"
    return Op("simulate_lpv" if lpv else "simulate_nl", out,
              ["simulate", src, "-o", out] + sc.argv(), case, sc)


def plan(workload: str, seed: int):
    """(cases, set-up ops, one cycle of timed ops) for a workload and seed."""
    if workload == "chain_convert":
        # convert carries the weight; the short runs after it price the
        # multi-MB artifact load rather than the rhs
        cases = [gen.chain(seed, i) for i in range(2)]
        cycle = []
        for c in cases:
            sc = gen.scenario(seed, c, t_end=2.0)
            cycle += [_convert(c), _simulate(c, sc, True),
                      _simulate(c, sc, False)]
        return cases, [], cycle
    if workload == "chain_simulate":
        # three artifacts, so that each set-up sample times three converts
        cases = [gen.chain(seed, i) for i in range(3)]
        cycle = []
        for c in cases:
            sc = gen.scenario(seed, c, t_end=15.0)
            cycle += [_simulate(c, sc, True), _simulate(c, sc, False)]
        return cases, [_convert(c) for c in cases], cycle
    if workload == "quad_fallback":
        cases = [gen.network(seed, i) for i in range(4)]
        cycle = []
        for c in cases:
            sc = gen.scenario(seed, c, t_end=15.0)
            cycle += [_convert(c), _simulate(c, sc, True),
                      _simulate(c, sc, False)]
        return cases, [], cycle
    raise ValueError(f"unknown workload '{workload}'")


class Runner:
    """Runs ops through the CLI entry point and records each one."""

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.traced = tracer is not None
        self.records: list[dict] = []

    def run(self, op: Op, phase: str) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.key)
        out, err = io.StringIO(), io.StringIO()
        if self.traced:
            self.tracer.op = len(self.records)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.traced:
                    rc = self.tracer.call(self.cli_main, op.argv)
                else:
                    rc = self.cli_main(op.argv)
        except SystemExit as exc:       # argparse rejecting the argv
            rc = exc.code
        except Exception:               # a traceback is a failed op
            rc = None
            err.write(traceback.format_exc())
        wall = perf_counter() - t0
        sha = None
        if rc == 0 and os.path.isfile(op.key):
            with open(op.key, "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
        self.records.append({"kind": op.kind, "key": op.key, "phase": phase,
                             "wall_s": wall, "rc": rc, "sha": sha,
                             "stderr": err.getvalue()[-2000:]})

    def loop(self, cycle: list[Op], phase: str, seconds: float) -> list[int]:
        """Cycle until ``seconds`` have passed, at least one full cycle.

        Returns the record indices of the first cycle.
        """
        first = len(self.records)
        deadline = perf_counter() + seconds
        n = 0
        while True:
            for op in cycle:
                if n >= len(cycle) and perf_counter() >= deadline:
                    return list(range(first, first + len(cycle)))
                self.run(op, phase)
                n += 1


def _overhead(records: list[dict], untraced: list[int], traced: list[int],
              cycle_len: int) -> float:
    """Traced over untraced op time, per position in the cycle, minus 1."""
    by_pos: dict[int, list[float]] = {}
    for i in traced:
        by_pos.setdefault((i - traced[0]) % cycle_len, []).append(
            records[i]["wall_s"])
    traced_s = sum(sorted(v)[len(v) // 2] for v in by_pos.values())
    untraced_s = sum(records[i]["wall_s"] for i in untraced)
    return traced_s / untraced_s - 1.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", dest="t_spawn", type=float, required=True)
    ap.add_argument("--setup-only", dest="setup_only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from lpvembed.cli import main as cli_main
    cases, setup_ops, cycle = plan(args.workload, args.seed)
    for c in cases:
        with open(c.name + ".nlss", "w", encoding="utf-8") as fh:
            fh.write(c.text)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    runner = Runner(cli_main, tracer)
    for op in setup_ops:
        runner.run(op, "setup")
    result = {"setup_s": perf_counter() - args.t_spawn}

    if not args.setup_only:
        if tracer is None:
            runner.loop(cycle, "run", args.seconds)
        else:
            t0 = perf_counter()
            tracer.remove()
            runner.traced = False
            for op in cycle:
                runner.run(op, "untraced")
            tracer.install()
            runner.traced = True
            first = runner.loop(cycle, "traced",
                                args.seconds - (perf_counter() - t0))
            tracer.remove()
            setup_ids = list(range(len(setup_ops)))
            untraced, traced_ids = (
                [i for i, r in enumerate(runner.records) if r["phase"] == p]
                for p in ("untraced", "traced"))
            layers = spans.summary(tracer, setup_ids + traced_ids,
                                   setup_ids + first)
            layers["trace.overhead_ratio"] = (
                _overhead(runner.records, untraced, traced_ids, len(cycle)),
                "1", len(traced_ids))
            result["layers"] = layers
            result["spans"] = tracer.span_count
            if args.spans:
                tracer.dump(args.spans)

    result["ops"] = runner.records
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
