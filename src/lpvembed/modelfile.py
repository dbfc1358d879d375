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

import errno
import json
import math
import os
import stat
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from . import __version__ as _version
from .expr import Expr, ExprError, constant_value
from .factorize import (
    Anchor, DeferredIntegral, LAMBDA, ModelError, NlssModel,
    input_names, state_names,
)
from .lpv import (CoeffFamily, LpvssModel, RangeBox, SchedulingMap,
                  _check_interval)
from .parser import BUILTIN_CONSTANTS, FUNCTIONS, ParseError, parse_expr
from .quadrature import ABS_TOL, MAX_SUBDIVISIONS, REL_TOL

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


def read_number(text: str,
                constants: Mapping[str, float] | None = None) -> float:
    """The value of the constant expression ``text``; ValueError if bad."""
    try:
        return constant_value(parse_expr(text, (), constants))
    except (ParseError, ExprError) as exc:
        raise ValueError(f"bad value '{text}': {exc}") from None


def declare(table: dict, kind: str, name: str, texts: Sequence[str],
            names: Sequence[str], constants: Mapping[str, float] | None = None):
    """Enter one ``anchor`` (one value) or ``box`` (two bounds) declaration
    of the variable ``name`` into ``table``.

    Model-file lines and the --anchor/--box flags share these rules; a
    bad declaration raises ValueError, which each caller locates.
    """
    if name not in names:
        raise ValueError(f"{kind}: unknown variable '{name}'")
    if name in table:
        raise ValueError(f"duplicate {kind} for {name}")
    if kind == "anchor":
        if len(texts) != 1:
            raise ValueError("anchor needs exactly one value")
        value = read_number(texts[0], constants)
        if not math.isfinite(value):
            raise ValueError(f"anchor for {name} must be finite, got {value!r}")
        table[name] = value
        return
    if len(texts) != 2:
        raise ValueError("box needs exactly two bounds")
    lo, hi = (read_number(t, constants) for t in texts)
    try:
        _check_interval(name, lo, hi)
    except ModelError as exc:
        raise ValueError(str(exc)) from None
    table[name] = (lo, hi)


def read_flag(kind: str, text: str, names: Sequence[str]) -> dict:
    """The declarations of an --anchor (``x1=0.5,u1=0``) or --box
    (``x1=-pi:pi,u1=-2:2``) flag over the variables ``names``."""
    table: dict = {}
    for item in text.split(","):
        name, sep, value = item.partition("=")
        try:
            declare(table, kind, name.strip(),
                    value.split(":") if sep else [], names)
        except ValueError as exc:
            raise ValueError(f"--{kind}: {exc}") from None
    return table


def anchor_of(model: NlssModel, values: Mapping[str, float]) -> Anchor:
    """The anchor at the declared ``values``; the other variables sit at 0."""
    return Anchor(tuple(values.get(n, 0.0) for n in model.x_names),
                  tuple(values.get(n, 0.0) for n in model.u_names))


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

    @cache  # dimensions, once all declared, do not change
    def vocab() -> frozenset[str]:
        if not all(k in dims for k in ("nx", "nu", "ny")):
            raise ValueError("nx, nu, ny must be declared before equations")
        return frozenset(state_names(dims["nx"]) + input_names(dims["nu"]))

    # a line's errors are raised as ValueError and located here
    for no, rawline in enumerate(lines, start=1):
        text = rawline.split("#", 1)[0].strip()
        if not text:
            continue
        key, _, rest = text.partition(" ")
        rest = rest.strip()
        try:
            if not version_seen:
                if key != "format_version":
                    raise ValueError("file must start with 'format_version 1'")
                if rest != str(MODEL_FORMAT_VERSION):
                    raise ValueError(f"unsupported format_version '{rest}'")
                version_seen = True
            elif key in ("nx", "nu", "ny"):
                if key in dims:
                    raise ValueError(f"duplicate {key}")
                try:
                    dims[key] = int(rest)
                except ValueError:
                    raise ValueError(f"{key} needs an integer") from None
                if dims[key] < 1:
                    raise ValueError(f"{key} must be positive")
            elif key == "time":
                if sample_time is not None:
                    raise ValueError("duplicate time declaration")
                parts = rest.split()
                if parts[:1] == ["continuous"] and len(parts) == 1:
                    sample_time = 0.0
                elif parts[:1] == ["discrete"]:
                    if len(parts) == 1:
                        sample_time = -1.0
                    elif len(parts) == 2:
                        sample_time = read_number(parts[1], constants)
                        if not np.isfinite(sample_time):
                            raise ValueError(
                                f"time: discrete sample time must be finite, "
                                f"got {sample_time!r}")
                        if sample_time <= 0 and sample_time != -1.0:
                            raise ValueError(
                                "discrete sample time must be > 0 or -1")
                    else:
                        raise ValueError("time: too many fields")
                else:
                    raise ValueError(
                        "time must be 'continuous' or 'discrete [Ts]'")
            elif key == "const":
                name, _, value = rest.partition(" ")
                value = value.strip()
                if not name or not value:
                    raise ValueError("const needs a name and a value")
                if (name in FUNCTIONS or name in BUILTIN_CONSTANTS
                        or name == LAMBDA or name in constants):
                    raise ValueError(f"constant name '{name}' is taken")
                constants[name] = read_number(value, constants)
            elif key.startswith(("f", "h")) and "=" in text:
                lhs, _, rhs = text.partition("=")
                lhs = lhs.strip()
                names = vocab()
                try:
                    idx = int(lhs[1:])
                except ValueError:
                    raise ValueError(f"bad equation label '{lhs}'") from None
                table, n, what = ((f_eqs, dims["nx"], "state") if lhs[0] == "f"
                                  else (h_eqs, dims["ny"], "output"))
                if not 1 <= idx <= n:
                    raise ValueError(f"{lhs}: {what} index out of range 1..{n}")
                if idx in table:
                    raise ValueError(f"duplicate equation {lhs}")
                try:
                    table[idx] = parse_expr(rhs.strip(), variables=names,
                                            constants=constants)
                except ParseError as exc:
                    raise ValueError(f"{lhs}: {exc}") from None
            elif key in ("anchor", "box"):
                name, _, value = rest.partition(" ")
                texts = [value.strip()] if key == "anchor" else value.split()
                declare(anchor_vals if key == "anchor" else box, key, name,
                        texts, vocab(), constants)
            else:
                raise ValueError(f"unrecognized line '{text}'")
        except ValueError as exc:
            raise ModelFileError(str(exc), path, no) from None

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

    anchor = anchor_of(model, anchor_vals) if anchor_vals else None
    return ModelDocument(model, anchor, box or None, path)


# ---------------------------------------------------------------------------
# LPV model artifacts
# ---------------------------------------------------------------------------

# what every deferred entry integrates with; integral01 objects record it
_QUAD_SETTINGS = {"abs_tol": ABS_TOL, "rel_tol": REL_TOL,
                  "max_subdivisions": MAX_SUBDIVISIONS}


def _sched_entry_to_json(e: Expr):
    if isinstance(e, DeferredIntegral):
        return {"kind": "integral01", "integrand": str(e.integrand),
                **_QUAD_SETTINGS}
    return str(e)


def _sched_entry_from_json(k: int, obj, names: tuple, path: str) -> Expr:
    try:
        if isinstance(obj, str):
            return parse_expr(obj, variables=names)
        if isinstance(obj, dict) and obj.get("kind") == "integral01":
            for key, value in _QUAD_SETTINGS.items():
                if obj.get(key, value) != value:
                    raise ModelFileError(
                        f"scheduling entry p{k + 1}: {key} {obj[key]!r} is "
                        f"not {value!r}, the value deferred entries use", path)
            return DeferredIntegral(parse_expr(obj["integrand"],
                                               variables=names + (LAMBDA,)))
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
        box = {k: (float(lo), float(hi)) for k, (lo, hi) in rb["box"].items()}
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


def check_writable(path: str) -> None:
    """Raise ModelFileError naming ``path``, as :func:`save_artifact`
    does, where no file can be written there: ``path`` is a directory,
    or its parent is missing, not a directory or not writable.  Commands
    call this before any work; the write itself still reports what this
    cannot foresee."""
    parent = os.path.dirname(path) or "."
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR,
                                     os.strerror(errno.ENOTDIR))
        if not os.access(parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise ModelFileError(f"cannot write: {exc.strerror}", path) from None


def save_artifact(path: str, m: LpvssModel, sm: SchedulingMap,
                  meta: dict | None = None):
    """Write the artifact as strict JSON, with no NaN or Infinity tokens.

    A failure leaves no partial artifact: the text goes to a sibling
    ``.tmp`` file that replaces ``path`` only when complete.  A path that
    cannot be written raises ModelFileError naming it.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(artifact_dict(m, sm, meta), fh, indent=2, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise ModelFileError(f"cannot write: {exc.strerror}", path) from None
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
        anchor = [tuple(map(float, doc["anchor"][k])) for k in "xu"]
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
    entries = tuple(_sched_entry_from_json(k, o, names, path)
                    for k, o in enumerate(sched_json))
    if len(entries) != n_p:
        raise ModelFileError(f"np = {n_p} but {len(entries)} scheduling entries",
                             path)

    rb = doc.get("range_box")
    range_box = _range_box_from_json(rb, n_p, path) if rb else None
    try:
        fields = dict(nx=nx, nu=nu, ny=ny, np=n_p, V=V, W=W,
                      anchor=Anchor(*anchor), sample_time=sample_time,
                      range_box=range_box)
        if version == 1:
            model = LpvssModel.from_dense(**mats, **fields)
        else:
            model = LpvssModel(coeffs={t: _family_from_json(t, v, path)
                                       for t, v in mats.items()}, **fields)
    except ModelError as exc:
        raise ModelFileError(str(exc), path) from None
    return model, SchedulingMap(entries, names), doc
