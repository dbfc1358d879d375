"""Command-line front end.

Verbs: convert (model -> LPV artifact), range (scheduling extrema over a
box), simulate (nonlinear model or self-scheduled LPV artifact to a
trajectory CSV), compare (RMSE between the two), info.

Exit codes: 0 success, 2 parse/usage error, 3 conversion or simulation
error, 4 verification or comparison residual above the threshold.
A self-scheduled run whose p(t) leaves the artifact's stored range box
warns on stderr and still exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .expr import ExprError
from .factorize import Anchor, ModelError, factorize
from .lpv import (
    RangeGridError, check_samples, default_box, estimate_range,
    extract_element, extract_factor, verify_embedding,
)
from .modelfile import (
    ModelDocument, ModelFileError, anchor_of, check_writable, load_artifact,
    load_model_file, read_flag, read_number, save_artifact,
)
from .models import BUNDLED, bundled_path
from .parser import ParseError
from .sim import (
    GridMismatchError, InputSignal, SolverConfig, SolverError,
    read_input_csv, rmse, simulate_lpv_self_scheduled, simulate_nl,
    trajectory_to_dict, write_trajectory_csv,
)

EXIT_PARSE = 2
EXIT_CONVERT = 3
EXIT_VERIFY = 4


def _load_model(path: str) -> ModelDocument:
    if os.path.exists(path):
        return load_model_file(path)
    if path in BUNDLED:
        return load_model_file(str(bundled_path(path)))
    raise ModelFileError(
        f"no such file, and no bundled model named '{path}' "
        f"(bundled: {', '.join(BUNDLED)})", path)


def _is_artifact(path: str) -> bool:
    return path.endswith(".json")


def _full_box(doc: ModelDocument):
    """Declared box completed with [-1, 1] defaults; reports what defaulted."""
    box = default_box(doc.model)
    defaulted = list(box)
    for name, iv in (doc.box or {}).items():
        box[name] = iv
        defaulted.remove(name)
    return box, defaulted


def _anchor(args, doc: ModelDocument) -> Anchor | None:
    if not args.anchor:
        return doc.anchor
    return anchor_of(doc.model,
                     read_flag("anchor", args.anchor, doc.model.var_names))


def _check_grid(grid: int) -> None:
    if grid < 2:
        raise ValueError(f"--grid must be at least 2, got {grid}")


def _check_threshold(threshold: float | None) -> None:
    if threshold is not None and not 0.0 <= threshold < np.inf:
        raise ValueError(f"--threshold must be non-negative and finite, "
                         f"got {threshold!r}")


def _extractor(name: str):
    return extract_factor if name == "factor" else extract_element


def _fmt_interval(iv) -> str:
    return f"[{iv[0]:.4g}, {iv[1]:.4g}]"


def _print_sched(sm, range_box=None):
    for i, s in enumerate(sm.entry_strings()):
        print(f"  p{i + 1} = {s}")
        if range_box is not None:
            print(f"       range raw {_fmt_interval(range_box.raw[i])}"
                  f"  reported {_fmt_interval(range_box.reported[i])}")


def cmd_convert(args) -> int:
    _check_threshold(args.threshold)
    _check_grid(args.grid)
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    check_writable(args.output)
    doc = _load_model(args.model)
    model = doc.model
    check_samples(model, args.samples)
    fs = factorize(model, _anchor(args, doc), args.mode)
    m, sm = _extractor(args.extract)(fs)

    box, defaulted = _full_box(doc)
    if sm.np:
        m.range_box = estimate_range(sm, box, args.grid)
    report = verify_embedding(model, m, sm, samples=args.samples,
                              box=box, seed=args.seed)
    meta = {
        "name": model.name,
        "source": doc.path,
        "integration_mode": args.mode,
        "extraction": args.extract,
        "report": {
            "warnings": list(fs.warnings),
            "threshold": args.threshold,
            "verify": report.to_dict(),
        },
    }
    save_artifact(args.output, m, sm, meta)

    print(f"{model.name or args.model}: {args.mode} factorization, "
          f"{args.extract} extraction")
    print(f"np = {sm.np}")
    _print_sched(sm, m.range_box)
    for w in fs.warnings:
        print(f"warning: {w}")
    if defaulted:
        print(f"note: no declared bounds for {', '.join(defaulted)}; "
              f"verified over [-1, 1]")
    ok = report.max_residual <= args.threshold
    print(f"verification: max residual {report.max_residual:.3e} over "
          f"{args.samples} samples (threshold {args.threshold:g}): "
          f"{'ok' if ok else 'ABOVE THRESHOLD'}")
    print(f"wrote {args.output}")
    return 0 if ok else EXIT_VERIFY


def cmd_range(args) -> int:
    """Ranges over the box ``convert`` used (an artifact's stored box, or
    a model's declared bounds completed with [-1, 1]), with the bounds
    ``--box`` gives in place of their variables' own."""
    _check_grid(args.grid)
    artifact = _is_artifact(args.target)
    if artifact:
        for flag, kept in (("anchor", "anchor it was converted at"),
                           ("mode", "integration mode it was converted with"),
                           ("extract", "extraction it was converted with")):
            if getattr(args, flag):
                raise ValueError(f"--{flag} applies only to a model; an "
                                 f"artifact keeps the {kept}")
        m, sm, _doc = load_artifact(args.target)
        names = sm.var_names
        box = dict(m.range_box.box if m.range_box else {})
    else:
        doc = _load_model(args.target)
        if doc.box is None and not args.box:
            raise ValueError("model declares no box; pass --box")
        names = doc.model.var_names
        box, _ = _full_box(doc)
    if args.box:
        box.update(read_flag("box", args.box, names))
    if not artifact:
        fs = factorize(doc.model, _anchor(args, doc), args.mode or "analytic")
        _, sm = _extractor(args.extract or "factor")(fs)
    used = {n for fp in sm.footprints for n in fp}
    missing = [n for n in names if n in used and n not in box]
    if missing:
        raise ValueError(f"no bounds for {', '.join(missing)}; pass --box")
    if sm.np == 0:
        print("np = 0: nothing to range")
        return 0
    rb = estimate_range(sm, box, args.grid)
    _print_sched(sm, rb)
    return 0


def _cfg(args) -> SolverConfig:
    return SolverConfig(
        method=args.solver, rel_tol=args.rel_tol, abs_tol=args.abs_tol,
        max_step=args.max_step, step=args.fixed_step,
        output_dt=args.output_dt,
    )


def _input_for(args, nu: int) -> InputSignal:
    if not args.input or args.input == "zero":
        return InputSignal.zero(nu)
    if os.path.isfile(args.input):
        return read_input_csv(args.input, nu)
    return InputSignal.from_exprs(args.input.split(";"), nu)


def _x0_for(args, nx: int):
    if not args.x0:
        return [0.0] * nx
    vals = [read_number(v) for v in args.x0.split(",")]
    if len(vals) != nx:
        raise ValueError(f"--x0 needs {nx} values, got {len(vals)}")
    if not all(np.isfinite(vals)):
        raise ValueError(f"--x0 values must be finite, got {args.x0}")
    return vals


def _warn_range_exit(m, traj):
    """One stderr line when p(t) leaves the artifact's stored range box."""
    if m.range_box is None:
        return
    found = m.range_box.first_exit(traj.t, traj.p)
    if found is not None:
        k, t, n = found
        print(f"warning: p{k + 1} left the stored range box at t = {t!r}; "
              f"{n} of {len(traj.t)} samples lie outside it", file=sys.stderr)


def _run_scenario(target: str, args):
    if _is_artifact(target):
        m, sm, _doc = load_artifact(target)
        u = _input_for(args, m.nu)
        traj = simulate_lpv_self_scheduled(m, sm, _x0_for(args, m.nx), u,
                                           args.t_end, _cfg(args))
        _warn_range_exit(m, traj)
        return traj
    doc = _load_model(target)
    u = _input_for(args, doc.model.nu)
    return simulate_nl(doc.model, _x0_for(args, doc.model.nx), u,
                       args.t_end, _cfg(args))


def cmd_simulate(args) -> int:
    check_writable(args.output)
    traj = _run_scenario(args.target, args)
    try:
        if args.output.endswith(".json"):
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(trajectory_to_dict(traj), fh)
                fh.write("\n")
        else:
            write_trajectory_csv(traj, args.output)
    except OSError as exc:
        raise ModelFileError(f"cannot write: {exc.strerror}",
                             args.output) from None
    print(f"wrote {args.output} ({len(traj.t)} samples)")
    return 0


def cmd_compare(args) -> int:
    _check_threshold(args.threshold)
    doc = _load_model(args.model)
    m, sm, _doc = load_artifact(args.artifact)
    if (m.nx, m.nu) != (doc.model.nx, doc.model.nu):
        raise ValueError("model and artifact dimensions disagree")
    u = _input_for(args, doc.model.nu)
    x0 = _x0_for(args, doc.model.nx)
    cfg = _cfg(args)
    a = simulate_nl(doc.model, x0, u, args.t_end, cfg)
    b = simulate_lpv_self_scheduled(m, sm, x0, u, args.t_end, cfg)
    _warn_range_exit(m, b)
    errs = rmse(a, b)
    print("per-state RMSE (nonlinear vs self-scheduled LPV):")
    for i, v in enumerate(errs):
        print(f"  x{i + 1}: {v:.3e}")
    if args.threshold is not None and float(np.max(errs)) > args.threshold:
        print(f"RMSE above threshold {args.threshold:g}")
        return EXIT_VERIFY
    return 0


def _report_lines(rep) -> list[str]:
    """The lines ``info`` prints for an artifact's conversion report."""
    warnings = rep.get("warnings", [])
    if not isinstance(warnings, list):  # a string would print per letter
        raise TypeError("warnings must be a list")
    lines = [f"  warning: {w}" for w in warnings]
    ver = rep.get("verify")
    if ver:
        # non-finite residuals are stored as "nan", "inf" or "-inf"
        lines.append(f"  verified max residual "
                     f"{float(ver['max_residual']):.3e} over "
                     f"{ver['samples']} samples")
    return lines


def cmd_info(args) -> int:
    if _is_artifact(args.target):
        m, sm, doc = load_artifact(args.target)
        try:
            report = _report_lines(doc.get("report", {}))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelFileError(f"malformed report: {exc!r}",
                                 args.target) from None
        print(f"LPV model artifact: {doc.get('name', args.target)}")
        print(f"  nx={m.nx} nu={m.nu} ny={m.ny} np={m.np}  "
              f"sample_time={m.sample_time:g}")
        print(f"  mode={doc.get('integration_mode', '?')} "
              f"extraction={doc.get('extraction', '?')}")
        print(f"  format_version {doc['format_version']}")
        print("  coefficients: " + ", ".join(
            f"{t} {m.coeffs[t].c.size}" for t in "ABCD") + " nonzero")
        _print_sched(sm, m.range_box)
        for line in report:
            print(line)
    else:
        doc = _load_model(args.target)
        model = doc.model
        kind = ("continuous" if model.is_continuous else
                f"discrete (Ts = {model.sample_time:g})")
        print(f"nonlinear model: {model.name}")
        print(f"  nx={model.nx} nu={model.nu} ny={model.ny}  {kind}")
        for k, v in model.constants.items():
            print(f"  const {k} = {v:g}")
        for i, e in enumerate(model.f):
            print(f"  f{i + 1} = {e}")
        for i, e in enumerate(model.h):
            print(f"  h{i + 1} = {e}")
        if doc.box:
            for k, v in doc.box.items():
                print(f"  box {k} in {_fmt_interval(v)}")
    return 0


def _add_scenario_flags(p, with_threshold: bool):
    p.add_argument("--input", default="zero",
                   help="u(t) expressions in t, ';'-separated per channel, "
                        "or a CSV file with t,u1.. columns (ZOH), or 'zero'")
    p.add_argument("--x0", default="", help="comma-separated initial state")
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--solver", default="auto",
                   choices=("auto", "rk45", "rk4", "discrete"))
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-8)
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=1e-10)
    p.add_argument("--max-step", dest="max_step", type=float,
                   default=float("inf"))
    p.add_argument("--fixed-step", dest="fixed_step", type=float, default=1e-3,
                   help="step for --solver rk4")
    p.add_argument("--output-dt", dest="output_dt", type=float, default=0.01)
    if with_threshold:
        p.add_argument("--threshold", type=float, default=None,
                       help="exit 4 if any per-state RMSE exceeds this")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpvembed",
        description="Exact global LPV embedding of nonlinear state-space models")
    ap.add_argument("--version", action="version",
                    version=f"lpvembed {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a model to an LPV artifact")
    p.add_argument("model", help="model file path or bundled name")
    p.add_argument("-o", "--output", required=True, help="artifact JSON path")
    p.add_argument("--mode", choices=("analytic", "numeric"),
                   default="analytic")
    p.add_argument("--extract", choices=("element", "factor"),
                   default="factor")
    p.add_argument("--anchor", help="factorization point, e.g. x1=0.5,u1=0")
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="exit 4 if the verification residual exceeds this")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--grid", type=int, default=10001,
                   help="range grid points per dimension")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("range", help="scheduling ranges over a box")
    p.add_argument("target", help="model file, bundled name, or artifact JSON")
    p.add_argument("--box", help="bounds, e.g. x1=-2*pi:2*pi,x2=-10:10")
    p.add_argument("--grid", type=int, default=10001)
    # unset on a model means analytic and factor; an artifact refuses them
    p.add_argument("--mode", choices=("analytic", "numeric"))
    p.add_argument("--extract", choices=("element", "factor"))
    p.add_argument("--anchor")
    p.set_defaults(func=cmd_range)

    p = sub.add_parser("simulate",
                       help="simulate a model or a self-scheduled artifact")
    p.add_argument("target")
    p.add_argument("-o", "--output", required=True,
                   help="trajectory CSV (or .json)")
    _add_scenario_flags(p, with_threshold=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare",
                       help="RMSE between a model and an artifact run")
    p.add_argument("model")
    p.add_argument("artifact")
    _add_scenario_flags(p, with_threshold=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("info", help="describe a model or an artifact")
    p.add_argument("target")
    p.set_defaults(func=cmd_info)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelFileError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModelError, ExprError, RangeGridError, SolverError,
            GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERT
    except RecursionError:
        print("error: expressions are nested too deeply", file=sys.stderr)
        return EXIT_CONVERT


if __name__ == "__main__":
    sys.exit(main())
