"""lpvembed benchmark: CLI verbs on generated models, timed end to end.

    python3 bench/run.py --workload chain_convert --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in processes of its own, with BLAS and
OpenMP pinned to one thread: ``SETUP_SAMPLES - 1`` that only set up, then
one that sets up and issues ops for ``--seconds`` from a single client
in a closed loop (see ``workload.py``).  Afterwards every output is
checked (see ``oracle.py``) and the metrics are printed, one line each
with unit and sample count, and last as one JSON object.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` skips the
set-up samples, runs one cycle of ops untraced and the rest with spans
around each module's public functions (see ``spans.py``), and reports
per-layer metrics and the tracing overhead.  Count metrics of a traced
run are also compared with an earlier traced run of the same workload,
seed and program source, when there was one; they must repeat exactly.

Exit status 0 means the run completed and printed its result; whether
the outputs were correct is the ``correct`` field.  Anything that stops
the run from completing exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 3
CHILD_GRACE_S = 150      # beyond --seconds: set-up, the last op, writing out
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "convert_s": "s",
    "simulate_lpv_s": "s",
    "simulate_nl_s": "s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}
# integrate self time reads exactly 0.0 on every run of the chain
# workloads, which never reach quadrature; it is printed, not reported
PRINT_ONLY_LAYERS = {"quadrature.integrate_s"}
COUNT_UNITS = ("count", "bytes")


class BenchError(Exception):
    """The run could not complete; no result is printed."""


def _machine() -> str:
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return (f"{cpu}, nproc {os.cpu_count()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, "
            f"{'/'.join(THREAD_VARS)}=1")


def _spawn(workdir: Path, args, extra: list[str]) -> dict:
    """Run workload.py in ``workdir``; return what it wrote."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log_path = workdir / "workload.log"
    with open(log_path, "wb") as log:
        cmd = [sys.executable, str(BENCH / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", "result.json"] + extra
        proc = subprocess.Popen(cmd + ["--t-spawn", repr(perf_counter())],
                                cwd=workdir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=args.seconds + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("workload process timed out") from None
    if rc != 0:
        tail = log_path.read_text(errors="replace")[-3000:]
        raise BenchError(f"workload process exited {rc}:\n{tail}")
    with open(workdir / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "lpvembed").rglob("*")):
        if p.suffix in (".py", ".nlss"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _check_outputs(args, main_dir: Path, results: list[dict]):
    """Oracle and determinism checks; (failed op count, notes, problems)."""
    sys.path.insert(0, str(SRC))
    import oracle
    import workload

    _cases, setup_ops, cycle = workload.plan(args.workload, args.seed)
    ops = {op.key: op for op in setup_ops + cycle}
    records = [r for res in results for r in res["ops"]]

    problems: list[str] = []
    bad_keys = set()
    refs: dict = {}
    worst_recon = worst_traj = 0.0
    for key in sorted({r["key"] for r in results[-1]["ops"]}):
        op = ops[key]
        path = str(main_dir / key)
        try:
            if not os.path.isfile(path):
                found = [f"{key}: no output written"]
            elif op.kind == "convert":
                found, err = oracle.check_artifact(path, op.case, args.seed)
                worst_recon = max(worst_recon, err)
            else:
                found, err = oracle.check_trajectory(
                    path, op.case, op.scenario, refs,
                    op.kind == "simulate_lpv")
                worst_traj = max(worst_traj, err)
        except Exception as exc:    # an unreadable output fails its ops
            found = [f"{key}: {type(exc).__name__}: {exc}"]
        if found:
            bad_keys.add(key)
            problems += found

    first_sha: dict[str, str] = {}
    repeats = failed = 0
    for r in records:
        ok = r["rc"] == 0 and r["sha"] is not None and r["key"] not in bad_keys
        if r["rc"] != 0:
            problems.append(f"{r['key']}: exit {r['rc']}: {r['stderr'][-300:]}")
        if r["sha"] is not None:
            if r["key"] not in first_sha:
                first_sha[r["key"]] = r["sha"]
            elif r["sha"] == first_sha[r["key"]]:
                repeats += 1
            else:
                ok = False
                problems.append(f"{r['key']}: output differs between repeats")
        failed += not ok
    notes = [f"artifacts checked against the model formula: worst "
             f"reconstruction error {worst_recon:.2e} "
             f"(tol {oracle.RECON_TOL:g})",
             f"trajectories checked against solve_ivp DOP853: worst state "
             f"error {worst_traj:.2e} (tol {oracle.TRAJ_TOL:g})",
             f"repeated ops with byte-identical output: {repeats}"]
    return failed, notes, problems


def _check_counts(args, layers: dict) -> list[str]:
    """Counts must repeat exactly across traced runs of one seed."""
    counts = {k: v[0] for k, v in layers.items() if v[1] in COUNT_UNITS}
    path = WORK / f"counts-{args.workload}-s{args.seed}-{_source_digest()}.json"
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        return [f"count {k} was {before.get(k)!r}, now {v!r}"
                for k, v in counts.items() if before.get(k) != v]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh)
    return []


def _spec_metrics() -> tuple[set, set] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def run(args) -> int:
    if not (SRC / "lpvembed" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}; run from the root "
                         f"of a source checkout")
    os.environ.update({v: "1" for v in THREAD_VARS})
    import workload
    if args.workload not in workload.WORKLOADS:
        raise BenchError(f"unknown workload '{args.workload}'; "
                         f"choose from {', '.join(workload.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        results = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                results.append(_spawn(run_dir / f"setup{i}", args,
                                      ["--setup-only"]))
        spans = ["--spans", str(WORK / f"spans-{args.workload}.npz")]
        results.append(_spawn(run_dir / "main", args,
                              spans if args.trace else []))
        failed, notes, problems = _check_outputs(args, run_dir / "main",
                                                 results)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = [r for res in results for r in res["ops"]]
    main = results[-1]
    print(f"lpvembed benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"machine: {_machine()}")
    print("load: closed loop, 1 client, each op one CLI verb through "
          "lpvembed.cli.main")
    for n in notes:
        print(f"check: {n}")

    attempted = len(records)
    if args.trace:
        layers = main["layers"]
        problems += _check_counts(args, layers)
        print(f"spans recorded: {main['spans']} (written to "
              f"{WORK.name}/spans-{args.workload}.npz)")
        table = {k: tuple(v) for k, v in layers.items()}
        reported = {k: v for k, v in table.items()
                    if k not in PRINT_ONLY_LAYERS}
    else:
        def walls(kind, phases):
            return [r["wall_s"] for r in records
                    if r["kind"] == kind and r["phase"] in phases]
        samples = {
            "setup_s": [res["setup_s"] for res in results],
            # chain_simulate converts only during set-up
            "convert_s": walls("convert", ("setup", "run")),
            "simulate_lpv_s": walls("simulate_lpv", ("run",)),
            "simulate_nl_s": walls("simulate_nl", ("run",)),
        }
        table = {k: (statistics.median(v), END_TO_END[k], len(v))
                 for k, v in samples.items()}
        table["ok_ratio"] = (1.0 - failed / attempted, "1", attempted)
        table["peak_rss_mb"] = (main["peak_rss_kb"] / 1024.0, "MB", 1)
        reported = table

    print(f"{'metric':34s} {'value':>14s}  {'unit':6s} samples")
    for k, (v, unit, n) in table.items():
        print(f"{k:34s} {v:14.6g}  {unit:6s} {n}")
    print(f"{'failed_ratio':34s} {failed / attempted:14.6g}  {'1':6s} "
          f"{attempted} ops attempted")
    for p in problems[:20]:
        print(f"FAILED: {p}")

    spec = _spec_metrics()
    if spec is not None and set(reported) != spec[bool(args.trace)]:
        raise BenchError("metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(reported) ^ spec[bool(args.trace)])}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit, _n) in reported.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Time lpvembed's CLI verbs on generated models.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
