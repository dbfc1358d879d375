"""Model text files and LPV model JSON artifacts.

Model files are line oriented.  Comments start with ``#``; blank lines
are skipped.  Dimensions must appear before the equations that use
them.  The full grammar::

    format_version 1
    nx <int>                      dimensions
    nu <int>
    ny <int>
    time continuous               or: time discrete [Ts | -1]
    const <name> <expr>           value may use pi and earlier constants
    f<i> = <expr>                 state equations, i = 1..nx
    h<j> = <expr>                 output equations, j = 1..ny
    anchor <var> <expr>           optional, per variable (default 0)
    box <var> <expr> <expr>       optional range bounds per variable

Expressions follow the grammar in :mod:`lpvembed.parser`, over the
variables x1..x_nx, u1..u_nu and the declared constants.  ``lam`` is
reserved for the integration variable and cannot be declared.

The JSON artifact written by the converter (``format_version`` 2)
stores each affine coefficient family A, B, C, D as its nonzero
triplets, ``{"shape": [np + 1, rows, cols], "k": [...], "i": [...],
"j": [...], "c": [...]}`` in row-major (k, i, j) order (k = 0 is the
constant part), so its size follows the nonzero count.  It also stores
the offsets, the scheduling map (plain grammar strings; entries kept
under quadrature serialize as ``{"kind": "integral01", ...}`` objects),
optional range boxes, and the conversion report.  :func:`load_artifact`
reconstructs the model and map exactly, so verification results are
reproducible from the file alone.  It also reads version 1 artifacts,
which store each family as a dense nested list.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import __version__ as _version
from .expr import Expr, EvalError
from .factorize import (
    DEFAULT_QUAD_ABS_TOL, DEFAULT_QUAD_MAX_SUBDIVISIONS, DEFAULT_QUAD_REL_TOL,
    Anchor, DeferredIntegral, LAMBDA, ModelError, NlssModel,
    input_names, state_names,
)
from .lpv import (CoeffFamily, LpvssModel, RangeBox, SchedulingMap,
                  _check_interval)
from .parser import BUILTIN_CONSTANTS, FUNCTIONS, ParseError, parse_expr

MODEL_FORMAT_VERSION = 1
ARTIFACT_FORMAT_VERSION = 2


class ModelFileError(Exception):
    """A model file or artifact could not be parsed."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        loc = path or "artifact"
        if line:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line


@dataclass
class ModelDocument:
    """A parsed model file: the model plus its optional declarations."""

    model: NlssModel
    anchor: Anchor | None
    box: dict[str, tuple[float, float]] | None
    path: str


def _eval_const_expr(text: str, constants: Mapping[str, float],
                     path: str, line: int) -> float:
    try:
        e = parse_expr(text, variables=(), constants=constants)
        return e.eval({})
    except (ParseError, EvalError) as exc:
        raise ModelFileError(f"bad value '{text}': {exc}", path, line) from None


def load_model_file(path: str) -> ModelDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ModelFileError(str(exc), path) from None

    dims: dict[str, int] = {}
    sample_time: float | None = None
    constants: dict[str, float] = {}
    f_eqs: dict[int, Expr] = {}
    h_eqs: dict[int, Expr] = {}
    anchor_vals: dict[str, float] = {}
    box: dict[str, tuple[float, float]] = {}
    version_seen = False

    def vocab() -> tuple[str, ...]:
        if not all(k in dims for k in ("nx", "nu", "ny")):
            raise ModelFileError("nx, nu, ny must be declared before equations",
                                 path, no)
        return state_names(dims["nx"]) + input_names(dims["nu"])

    for no, rawline in enumerate(lines, start=1):
        text = rawline.split("#", 1)[0].strip()
        if not text:
            continue
        key, _, rest = text.partition(" ")
        rest = rest.strip()
        if not version_seen:
            if key != "format_version":
                raise ModelFileError("file must start with 'format_version 1'",
                                     path, no)
            if rest != str(MODEL_FORMAT_VERSION):
                raise ModelFileError(f"unsupported format_version '{rest}'",
                                     path, no)
            version_seen = True
            continue

        if key in ("nx", "nu", "ny"):
            if key in dims:
                raise ModelFileError(f"duplicate {key}", path, no)
            try:
                dims[key] = int(rest)
            except ValueError:
                raise ModelFileError(f"{key} needs an integer", path, no) from None
            if dims[key] < 1:
                raise ModelFileError(f"{key} must be positive", path, no)
        elif key == "time":
            if sample_time is not None:
                raise ModelFileError("duplicate time declaration", path, no)
            parts = rest.split()
            if parts[:1] == ["continuous"] and len(parts) == 1:
                sample_time = 0.0
            elif parts[:1] == ["discrete"]:
                if len(parts) == 1:
                    sample_time = -1.0
                elif len(parts) == 2:
                    sample_time = _eval_const_expr(parts[1], constants, path, no)
                    if not np.isfinite(sample_time):
                        raise ModelFileError(
                            f"time: discrete sample time must be finite, "
                            f"got {sample_time!r}", path, no)
                    if sample_time <= 0 and sample_time != -1.0:
                        raise ModelFileError(
                            "discrete sample time must be > 0 or -1", path, no)
                else:
                    raise ModelFileError("time: too many fields", path, no)
            else:
                raise ModelFileError(
                    "time must be 'continuous' or 'discrete [Ts]'", path, no)
        elif key == "const":
            name, _, value = rest.partition(" ")
            value = value.strip()
            if not name or not value:
                raise ModelFileError("const needs a name and a value", path, no)
            reserved = (name in FUNCTIONS or name in BUILTIN_CONSTANTS
                        or name == LAMBDA or name in constants)
            if reserved:
                raise ModelFileError(f"constant name '{name}' is taken", path, no)
            constants[name] = _eval_const_expr(value, constants, path, no)
        elif key.startswith(("f", "h")) and "=" in text:
            lhs, _, rhs = text.partition("=")
            lhs = lhs.strip()
            names = vocab()
            try:
                idx = int(lhs[1:])
            except ValueError:
                raise ModelFileError(f"bad equation label '{lhs}'", path, no) from None
            table, n, what = ((f_eqs, dims["nx"], "state") if lhs[0] == "f"
                              else (h_eqs, dims["ny"], "output"))
            if not 1 <= idx <= n:
                raise ModelFileError(
                    f"{lhs}: {what} index out of range 1..{n}", path, no)
            if idx in table:
                raise ModelFileError(f"duplicate equation {lhs}", path, no)
            try:
                table[idx] = parse_expr(rhs.strip(), variables=names,
                                        constants=constants)
            except ParseError as exc:
                raise ModelFileError(f"{lhs}: {exc}", path, no) from None
        elif key == "anchor":
            name, _, value = rest.partition(" ")
            if name not in vocab():
                raise ModelFileError(f"anchor: unknown variable '{name}'", path, no)
            anchor_vals[name] = _eval_const_expr(value.strip(), constants, path, no)
        elif key == "box":
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise ModelFileError("box needs a variable and two bounds", path, no)
            name, bounds = parts
            if name not in vocab():
                raise ModelFileError(f"box: unknown variable '{name}'", path, no)
            vals = bounds.split()
            if len(vals) != 2:
                raise ModelFileError("box needs exactly two bounds", path, no)
            lo = _eval_const_expr(vals[0], constants, path, no)
            hi = _eval_const_expr(vals[1], constants, path, no)
            try:
                _check_interval(name, lo, hi)
            except ModelError as exc:
                raise ModelFileError(str(exc), path, no) from None
            box[name] = (lo, hi)
        else:
            raise ModelFileError(f"unrecognized line '{text}'", path, no)

    for k in ("nx", "nu", "ny"):
        if k not in dims:
            raise ModelFileError(f"missing {k}", path)
    missing_f = [i for i in range(1, dims["nx"] + 1) if i not in f_eqs]
    missing_h = [i for i in range(1, dims["ny"] + 1) if i not in h_eqs]
    if missing_f:
        raise ModelFileError(
            f"missing state equations: {', '.join(f'f{i}' for i in missing_f)}", path)
    if missing_h:
        raise ModelFileError(
            f"missing output equations: {', '.join(f'h{i}' for i in missing_h)}", path)

    name = path.rsplit("/", 1)[-1]
    name = name[:-5] if name.endswith(".nlss") else name
    try:
        model = NlssModel(
            nx=dims["nx"], nu=dims["nu"], ny=dims["ny"],
            f=tuple(f_eqs[i] for i in range(1, dims["nx"] + 1)),
            h=tuple(h_eqs[i] for i in range(1, dims["ny"] + 1)),
            sample_time=0.0 if sample_time is None else sample_time,
            constants=dict(constants),
            name=name,
        )
    except ModelError as exc:
        raise ModelFileError(str(exc), path) from None

    anchor = None
    if anchor_vals:
        anchor = Anchor(
            tuple(anchor_vals.get(n, 0.0) for n in model.x_names),
            tuple(anchor_vals.get(n, 0.0) for n in model.u_names),
        )
    return ModelDocument(model, anchor, box or None, path)


# ---------------------------------------------------------------------------
# LPV model artifacts
# ---------------------------------------------------------------------------

def _sched_entry_to_json(e: Expr):
    if isinstance(e, DeferredIntegral):
        return {
            "kind": "integral01",
            "integrand": str(e.integrand),
            "abs_tol": e.abs_tol,
            "rel_tol": e.rel_tol,
            "max_subdivisions": e.max_subdivisions,
        }
    return str(e)


def _sched_entry_from_json(obj, names: tuple[str, ...], path: str) -> Expr:
    try:
        if isinstance(obj, str):
            return parse_expr(obj, variables=names)
        if isinstance(obj, dict) and obj.get("kind") == "integral01":
            integrand = parse_expr(obj["integrand"],
                                   variables=names + (LAMBDA,))
            return DeferredIntegral(
                integrand,
                abs_tol=float(obj.get("abs_tol", DEFAULT_QUAD_ABS_TOL)),
                rel_tol=float(obj.get("rel_tol", DEFAULT_QUAD_REL_TOL)),
                max_subdivisions=int(obj.get("max_subdivisions",
                                             DEFAULT_QUAD_MAX_SUBDIVISIONS)),
            )
    except (ParseError, KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"bad scheduling entry {obj!r}: {exc}", path) from None
    raise ModelFileError(f"bad scheduling entry {obj!r}", path)


def _family_to_json(f: CoeffFamily) -> dict:
    return {"shape": list(f.shape), "k": f.k.tolist(), "i": f.i.tolist(),
            "j": f.j.tolist(), "c": f.c.tolist()}


def _family_from_json(tag: str, obj, path: str) -> CoeffFamily:
    """A version 2 family; the model checks bounds, order and values."""
    try:
        lists = {n: obj[n] for n in ("shape", "k", "i", "j", "c")}
        for n, values in lists.items():
            kinds = (int,) if n != "c" else (int, float)
            if not (isinstance(values, list)
                    and all(type(v) in kinds for v in values)):
                raise ValueError(f"{n} must be a list of "
                                 f"{'integers' if n != 'c' else 'numbers'}")
        if len(lists["shape"]) != 3:
            raise ValueError("shape needs 3 entries")
        return CoeffFamily(tuple(lists["shape"]),
                           *(np.array(lists[n], dtype=np.int64) for n in "kij"),
                           np.array(lists["c"], dtype=float))
    except KeyError as exc:
        raise ModelFileError(f"coefficient family {tag}: missing {exc}",
                             path) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"coefficient family {tag}: {exc}", path) from None


def _range_box_from_json(rb, n_p: int, path: str) -> RangeBox:
    """The stored range box; ``box`` is checked as a model file's box is,
    and ``reported`` may be infinite where widening overflowed."""
    try:
        pairs = {}
        for key in ("raw", "reported"):
            if not (isinstance(rb[key], list) and len(rb[key]) == n_p):
                raise ValueError(f"{key} must list one interval per "
                                 f"scheduling entry ({n_p})")
            pairs[key] = tuple((float(lo), float(hi)) for lo, hi in rb[key])
            for i, (lo, hi) in enumerate(pairs[key]):
                finite = key == "reported" or (math.isfinite(lo)
                                               and math.isfinite(hi))
                if not (lo <= hi and finite):     # lo <= hi fails on NaN
                    raise ValueError(
                        f"invalid {key} interval for p{i + 1}: [{lo}, {hi}]")
        box = {k: (float(v[0]), float(v[1])) for k, v in rb["box"].items()}
        for name, (lo, hi) in box.items():
            _check_interval(name, lo, hi)
        return RangeBox(**pairs, grid_per_dim=int(rb["grid_per_dim"]),
                        box=box)
    except KeyError as exc:
        raise ModelFileError(f"range_box: missing {exc}", path) from None
    except (AttributeError, TypeError, ValueError, ModelError) as exc:
        raise ModelFileError(f"range_box: {exc}", path) from None


def artifact_dict(m: LpvssModel, sm: SchedulingMap, meta: dict | None = None) -> dict:
    out = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "kind": "lpv_model",
        "generator": f"lpvembed {_version}",
        "nx": m.nx, "nu": m.nu, "ny": m.ny, "np": m.np,
        "sample_time": m.sample_time,
        "anchor": {"x": list(m.anchor.x_bar), "u": list(m.anchor.u_bar)},
        "matrices": {t: _family_to_json(m.coeffs[t]) for t in "ABCD"},
        "offsets": {"V": m.V.tolist(), "W": m.W.tolist()},
        "scheduling": [_sched_entry_to_json(e) for e in sm.entries],
        "footprints": [list(fp) for fp in sm.footprints],
        "range_box": None if m.range_box is None else m.range_box.to_dict(),
    }
    out.update(meta or {})
    return out


def save_artifact(path: str, m: LpvssModel, sm: SchedulingMap,
                  meta: dict | None = None):
    """Write the artifact as strict JSON, with no NaN or Infinity tokens.

    A failure leaves no partial artifact: the text goes to a sibling
    ``.tmp`` file that replaces ``path`` only when complete.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(artifact_dict(m, sm, meta), fh, indent=2, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_artifact(path: str):
    """Read an artifact of version 1 or 2 back as (LpvssModel,
    SchedulingMap, full dict)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFileError(str(exc), path) from None
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"not valid JSON: {exc}", path) from None

    if not isinstance(doc, dict) or doc.get("kind") != "lpv_model":
        raise ModelFileError("not an LPV model artifact", path)
    version = doc.get("format_version")
    if version not in (1, ARTIFACT_FORMAT_VERSION):
        raise ModelFileError(
            f"unsupported format_version {doc.get('format_version')!r}", path)
    try:
        nx, nu, ny, n_p = (int(doc[k]) for k in ("nx", "nu", "ny", "np"))
        anchor = Anchor(tuple(map(float, doc["anchor"]["x"])),
                        tuple(map(float, doc["anchor"]["u"])))
        mats = {t: doc["matrices"][t] for t in "ABCD"}
        if version == 1:
            mats = {t: np.array(v, dtype=float) for t, v in mats.items()}
        V = np.array(doc["offsets"]["V"], dtype=float)
        W = np.array(doc["offsets"]["W"], dtype=float)
        sample_time = float(doc.get("sample_time", 0.0))
        sched_json = doc["scheduling"]
        if not isinstance(sched_json, list):
            raise TypeError("scheduling must be a list")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"malformed artifact: {exc!r}", path) from None

    names = state_names(nx) + input_names(nu)
    entries = tuple(_sched_entry_from_json(o, names, path) for o in sched_json)
    if len(entries) != n_p:
        raise ModelFileError(f"np = {n_p} but {len(entries)} scheduling entries",
                             path)

    rb = doc.get("range_box")
    range_box = _range_box_from_json(rb, n_p, path) if rb else None
    fields = dict(nx=nx, nu=nu, ny=ny, np=n_p, V=V, W=W, anchor=anchor,
                  sample_time=sample_time, range_box=range_box)
    try:
        if version == 1:
            model = LpvssModel.from_dense(**mats, **fields)
        else:
            model = LpvssModel(coeffs={t: _family_from_json(t, v, path)
                                       for t, v in mats.items()}, **fields)
    except ModelError as exc:
        raise ModelFileError(str(exc), path) from None
    return model, SchedulingMap(entries, names), doc
