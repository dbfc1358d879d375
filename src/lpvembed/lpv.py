"""Affine LPV models and scheduling maps from factorized systems.

A factorized system's matrix functions are split into an affine family

    A(p) = A0 + p1*A1 + ... + pnp*Anp     (likewise B, C, D)

together with a scheduling map p = eta(x, u) built from the nonlinear
matrix entries.  Two extraction policies are provided: 'element' turns
every nonlinear entry into one scheduling variable, 'factor' first
splits entries into sums of (constant coefficient) * (nonlinear factor)
and schedules the factors.  Both are one pass over the entries and
deduplicate structurally identical expressions, so repeated
nonlinearities cost a single p component.

Substituting p = eta(x, u) back recovers the factorized matrices
exactly; combined with the line-integral identity this makes the LPV
model an exact global embedding of the nonlinear system, which
:func:`verify_embedding` checks by direct sampling.

The scheduling map is compiled once, into one function that returns all
of p (see :func:`compile_vector`).  When it fails, the error names the
entry that failed: ``p2: ln of non-positive value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expr import (EVAL_ERRORS, Add, EvalError, Expr, Mul, compile_array,
                   compile_scalar, compile_vector, first_failure, mul,
                   to_string)
from .factorize import (
    Anchor, FactorizedSystem, ModelError, NlssModel, var_sort_key,
)

RANGE_GRID_BUDGET = 10_000_000
RANGE_BLOCK = 1 << 16      # grid points per numpy evaluation in the scan


class SchedulingError(Exception):
    """Scheduling map evaluation failed; carries the offending p index."""

    def __init__(self, index: int, cause: Exception):
        super().__init__(f"p{index + 1}: {cause}")
        self.index = index


class RangeGridError(Exception):
    """The requested range grid is larger than the evaluation budget."""


def _json_float(v) -> float | str:
    """``v`` for a strict JSON document: "nan", "inf" or "-inf" if not finite."""
    v = float(v)
    return v if math.isfinite(v) else str(v)


@dataclass
class SchedulingMap:
    """p = eta(x, u), one expression per scheduling variable."""

    entries: tuple[Expr, ...]
    var_names: tuple[str, ...]     # x names then u names of the source model

    @property
    def np(self) -> int:
        return len(self.entries)

    @property
    def footprints(self) -> tuple[tuple[str, ...], ...]:
        """Per-entry (x, u) components the entry actually depends on."""
        return tuple(
            tuple(sorted(e.free_vars(), key=var_sort_key)) for e in self.entries
        )

    @cached_property
    def _vector(self):
        return compile_vector(self.entries, self.var_names)

    def evaluate(self, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        args = (*x, *u)
        try:
            return np.array(self._vector(*args), dtype=float)
        except EVAL_ERRORS as exc:
            i, cause = first_failure(self.entries, self.var_names, args, exc)
            raise SchedulingError(i, cause) from cause

    def entry_strings(self) -> list[str]:
        return [to_string(e) for e in self.entries]


@dataclass
class RangeBox:
    """Scheduling ranges: raw grid extrema and the reported (widened) box."""

    raw: tuple[tuple[float, float], ...]
    reported: tuple[tuple[float, float], ...]
    grid_per_dim: int
    box: dict[str, tuple[float, float]]

    def first_exit(self, t: np.ndarray, p: np.ndarray):
        """Where the samples ``p`` (n, np) at times ``t`` leave ``reported``.

        Returns (component index, time, samples outside) for the first
        sample with a component outside the box, taking the lowest
        index when several leave together; the count is of samples with
        any component outside.  None when every sample lies inside.
        """
        lo, hi = np.asarray(self.reported, dtype=float).reshape(-1, 2).T
        outside = (p < lo) | (p > hi)
        rows = np.flatnonzero(outside.any(axis=1))
        if rows.size == 0:
            return None
        first = rows[0]
        return int(np.argmax(outside[first])), float(t[first]), int(rows.size)

    def to_dict(self) -> dict:
        return {
            "grid_per_dim": self.grid_per_dim,
            "box": {k: list(v) for k, v in self.box.items()},
            "raw": [list(v) for v in self.raw],
            "reported": [list(map(_json_float, v)) for v in self.reported],
        }


@dataclass
class CoeffFamily:
    """One affine coefficient family, stored as summed sparse triplets.

    ``shape`` is (np + 1, rows, cols).  Entry n is the coefficient
    ``c[n]`` at ``[k[n], i[n], j[n]]``; every other coefficient is zero.
    Entries are unique and in row-major (k, i, j) order, and exact zeros
    are dropped, so the triplets are exactly the nonzeros of the dense
    array that :meth:`dense` builds.
    """

    shape: tuple[int, int, int]
    k: np.ndarray
    i: np.ndarray
    j: np.ndarray
    c: np.ndarray

    def dense(self) -> np.ndarray:
        """A fresh read-only dense array of the family."""
        out = np.zeros(self.shape)
        out[self.k, self.i, self.j] = self.c
        out.flags.writeable = False
        return out

    def check(self, name: str, shape: tuple[int, int, int]) -> None:
        """Raise ModelError unless the triplets are well formed for ``shape``."""
        if tuple(self.shape) != shape:
            raise ModelError(
                f"{name} has shape {tuple(self.shape)}, expected {shape}")
        k, i, j, c = self.k, self.i, self.j, self.c
        if not all(a.ndim == 1 and a.size == c.size for a in (k, i, j, c)):
            raise ModelError(f"{name}: k, i, j and c need equal lengths")
        if any(a.dtype.kind not in "iu" for a in (k, i, j)) \
                or c.dtype.kind != "f":
            raise ModelError(f"{name}: k, i, j must be integers and c floats")
        for axis, a, n in zip("kij", (k, i, j), shape):
            if a.size and (a.min() < 0 or a.max() >= n):
                raise ModelError(
                    f"{name}: index {axis} outside 0..{n - 1}")
        flat = (k * shape[1] + i) * shape[2] + j
        if np.any(flat[1:] <= flat[:-1]):
            raise ModelError(f"{name}: entries must be unique and in "
                             f"row-major (k, i, j) order")
        bad = np.flatnonzero(~np.isfinite(c) | (c == 0.0))
        if bad.size:
            n = bad[0]
            what = "is stored" if c[n] == 0.0 else "is not finite"
            raise ModelError(f"{name}[{k[n]}, {i[n]}, {j[n]}] = {c[n]} {what}")


def _dense_view(tag: str) -> property:
    return property(lambda self: self.coeffs[tag].dense(),
                    doc=f"{tag} as a fresh read-only dense array.")


@dataclass
class LpvssModel:
    """Affine LPV state-space model.

    Coefficient families are stacked: ``A[0]`` is the constant part and
    ``A[1 + i]`` the coefficient of p_{i+1}; likewise B, C, D.  The
    realization identity, with (dx, du) = (x - x_bar, u - u_bar):

        f(x, u) = A(p) dx + B(p) du + V,   p = eta(x, u)

    and the output analogue with C, D, W.  For the default origin
    anchor dx = x and du = u.

    The families are stored as :class:`CoeffFamily` triplets in
    ``coeffs`` (keys "A" to "D"): most coefficients are zero (a
    30-pendulum chain keeps 206 of 320,400 entries of A), so extraction,
    verification, simulation and the artifact all work on the nonzeros.
    ``A`` to ``D`` build fresh read-only dense arrays on each access, for
    inspection; edit the triplets instead.  Every coefficient and offset
    must be finite.  :meth:`from_dense` builds a model from dense arrays.
    """

    nx: int
    nu: int
    ny: int
    np: int
    coeffs: dict[str, CoeffFamily]
    V: np.ndarray
    W: np.ndarray
    anchor: Anchor
    sample_time: float = 0.0
    range_box: RangeBox | None = None

    A = _dense_view("A")
    B = _dense_view("B")
    C = _dense_view("C")
    D = _dense_view("D")

    def __post_init__(self):
        n = self.np + 1
        for name, shape in (("A", (n, self.nx, self.nx)),
                            ("B", (n, self.nx, self.nu)),
                            ("C", (n, self.ny, self.nx)),
                            ("D", (n, self.ny, self.nu))):
            self.coeffs[name].check(name, shape)
        for name, shape in (("V", (self.nx,)), ("W", (self.ny,))):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ModelError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                at = np.argwhere(~np.isfinite(arr))[0].tolist()
                raise ModelError(f"{name}{at} = {arr[tuple(at)]} is not finite")
        self.anchor.bindings(self.nx, self.nu)  # checks its dimensions

    @classmethod
    def from_dense(cls, A, B, C, D, **fields) -> LpvssModel:
        """A model from dense (np + 1, rows, cols) arrays A, B, C, D; the
        other fields are passed on as they are."""
        coeffs = {}
        for tag, arr in zip("ABCD", (A, B, C, D)):
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 3:
                raise ModelError(f"{tag} has shape {arr.shape}, expected 3 axes")
            k, i, j = np.nonzero(arr)
            coeffs[tag] = CoeffFamily(arr.shape, k, i, j, arr[k, i, j])
        return cls(coeffs=coeffs, **fields)

    def matrices(self, p: Sequence[float]):
        """(A(p), B(p), C(p), D(p)) as dense matrices."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.np,):
            raise ModelError(f"expected {self.np} scheduling values, got {p.shape}")
        w = np.concatenate(((1.0,), p))
        out = []
        for tag in "ABCD":
            f = self.coeffs[tag]
            rows, cols = f.shape[1:]
            out.append(np.bincount(f.i * cols + f.j, weights=f.c * w[f.k],
                                   minlength=rows * cols).reshape(rows, cols))
        return tuple(out)

    def affine_maps(self):
        """The realization as a sparse state map and output map.

        Returns ``(state, output)``: ``state(p, x, u)`` is
        ``A(p)(x - x_bar) + B(p)(u - u_bar) + V`` and ``output(p, x, u)``
        its analogue with C, D, W.  Each map merges the triplets of its
        two families into those of ``[X | U]`` (U's columns shifted by
        nx), in row-major (k, i, j) order, and sums ``c * w[k] * z[j]``
        into row i, with ``w = [1, p]`` and ``z = [x - x_bar, u - u_bar]``,
        so its cost follows the nonzero count rather than ``np * nx^2``.
        The maps copy the current triplets; build them again after
        editing them.  They sum in another order than :meth:`matrices`
        and agree with it to rounding, not bit for bit.
        """
        bar = np.concatenate((self.anchor.x_bar, self.anchor.u_bar))

        def sparse(X: CoeffFamily, U: CoeffFamily, offset):
            _, rows, nx = X.shape
            cols = nx + U.shape[2]
            k, i, j, c = (np.concatenate(pair) for pair in (
                (X.k, U.k), (X.i, U.i), (X.j, U.j + nx), (X.c, U.c)))
            order = np.argsort((k * rows + i) * cols + j)
            k, i, j, c = k[order], i[order], j[order], c[order]

            def apply(p, x, u):
                w = np.concatenate(((1.0,), p))
                z = np.concatenate((x, u)) - bar
                return np.bincount(i, weights=c * w[k] * z[j],
                                   minlength=rows) + offset
            return apply

        f = self.coeffs
        return (sparse(f["A"], f["B"], self.V),
                sparse(f["C"], f["D"], self.W))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _split_term(term: Expr):
    """(coefficient, factor) with the coefficient constant in (x, u).

    Splits a canonical product into its variable-free factors (folded to
    a float) and the rest.  Terms that refuse to split (a variable-free
    factor that cannot be evaluated) degrade to coefficient 1 on the
    whole term.
    """
    if not isinstance(term, Mul):
        return 1.0, term
    const_part = []
    hot = []
    for f in term.terms:
        (hot if f.free_vars() else const_part).append(f)
    if not const_part:
        return 1.0, term
    try:
        coeff = mul(*const_part).eval({})
    except EvalError:
        return 1.0, term
    return coeff, mul(*hot)


def _extract(fs: FactorizedSystem, split: bool):
    """Both extraction policies: one row-major pass over A, B, C, D.

    ``split`` flattens each entry into terms and each term into
    (coefficient, factor); without it every entry is its own factor.
    """
    blocks = {t: getattr(fs, f"{t}_bar") for t in "ABCD"}
    index: dict[Expr, int] = {}
    # (tag, k, i, j) -> coefficient, with k = 0 for constant terms, else
    # 1 + the index of the factor, numbered in discovery order.  The terms
    # that meet at one key are summed in discovery order from 0.0, as a
    # dense += fill would sum them; only nonzero sums are stored.
    sums: dict[tuple, float] = {}
    for tag, block in blocks.items():
        for i, row in enumerate(block.entries):
            for j, e in enumerate(row):
                terms = e.terms if split and isinstance(e, Add) else (e,)
                for term in terms:
                    if not term.free_vars():
                        k, coeff = 0, term.eval({})
                    else:
                        coeff, factor = (_split_term(term) if split
                                         else (1.0, term))
                        k = index.setdefault(factor, len(index)) + 1
                    key = (tag, k, i, j)
                    sums[key] = sums.get(key, 0.0) + coeff
    rows = {t: [] for t in blocks}
    for (tag, k, i, j), c in sorted(sums.items()):
        if c != 0.0:
            rows[tag].append((k, i, j, c))
    coeffs = {}
    for tag, block in blocks.items():
        k, i, j, c = zip(*rows[tag]) if rows[tag] else ((),) * 4
        coeffs[tag] = CoeffFamily(
            (len(index) + 1,) + block.shape, np.array(k, dtype=np.int64),
            np.array(i, dtype=np.int64), np.array(j, dtype=np.int64),
            np.array(c, dtype=float))
    m = fs.model
    model = LpvssModel(nx=m.nx, nu=m.nu, ny=m.ny, np=len(index), coeffs=coeffs,
                       V=fs.V.copy(), W=fs.W.copy(), anchor=fs.anchor,
                       sample_time=m.sample_time)
    return model, SchedulingMap(tuple(index), m.var_names)


def extract_element(fs: FactorizedSystem):
    """One scheduling variable per distinct nonlinear matrix entry.

    Constant entries populate the p-independent matrices; every other
    entry e becomes (or reuses) a scheduling variable with coefficient 1
    at its position.  Discovery order is row-major over A, B, C, D.
    """
    return _extract(fs, split=False)


def extract_factor(fs: FactorizedSystem):
    """Scheduling variables from the nonlinear factors of each entry.

    Each entry is flattened into a sum of terms; each term contributes
    its variable-free coefficient to the coefficient matrix of the
    scheduling variable carrying its nonlinear factor.  Factors repeated
    anywhere in the system share one scheduling variable.  A term with
    no clean split degrades to element treatment (coefficient 1 on the
    whole term).
    """
    return _extract(fs, split=True)


# ---------------------------------------------------------------------------
# scheduling ranges
# ---------------------------------------------------------------------------

def _widen(lo: float, hi: float) -> tuple[float, float]:
    # safety margin: 0.5% of each endpoint's magnitude, outward
    return lo - 0.005 * abs(lo), hi + 0.005 * abs(hi)


def _check_interval(name: str, lo: float, hi: float) -> None:
    """Reject a box interval that is non-finite, reversed, or too wide for
    ``hi - lo`` to be finite (grids and samples are formed from it)."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ModelError(f"invalid box for {name}: [{lo}, {hi}]")
    if not math.isfinite(float(hi) - float(lo)):
        raise ModelError(
            f"invalid box for {name}: width {hi} - ({lo}) overflows")


def _grid_point(fp: Sequence[str], pt) -> str:
    return "at grid point " + ", ".join(
        f"{n}={float(c)!r}" for n, c in zip(fp, pt))


def _scan(idx: int, fp: Sequence[str], axes, fn, vec) -> tuple[float, float]:
    """(lo, hi) of entry ``idx`` over the grid of ``axes``, as
    :func:`estimate_range` describes: blocks through ``vec`` (None when
    the numpy table has no code), or point by point through ``fn``."""
    shape = tuple(len(a) for a in axes)
    total = math.prod(shape)

    def columns(flat):             # the axis values at flat grid indices
        cols = np.unravel_index(flat, shape) if shape else ()
        return [a[c] for a, c in zip(axes, cols)]

    def value(pt) -> float:
        # a domain error or a non-finite value raises, naming the point
        try:
            v = fn(*pt)
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {float(v)!r}")
        except EVAL_ERRORS as exc:
            raise SchedulingError(idx, ValueError(
                f"{exc} {_grid_point(fp, pt)}")) from exc
        return v

    def walk(flat) -> np.ndarray:  # fn point by point, on numpy scalars
        pts = zip(*columns(flat)) if axes else [()] * flat.size
        with np.errstate(all="ignore"):   # an inf or a NaN is checked here
            return np.fromiter(map(value, pts), float, flat.size)

    lo = hi = None                 # (value, flat index)
    for start in range(0, total, RANGE_BLOCK):
        flat = np.arange(start, min(start + RANGE_BLOCK, total))
        v = None
        if vec is not None:
            try:
                with np.errstate(all="raise", under="ignore"):
                    # a constant is one number
                    v = np.broadcast_to(vec(*columns(flat)), flat.shape)
            except (FloatingPointError, *EVAL_ERRORS):
                pass
        if v is None or not np.isfinite(v).all():
            v = walk(flat)
        i, j = int(v.argmin()), int(v.argmax())
        if lo is None or v[i] < lo[0]:
            lo = (v[i], start + i)
        if hi is None or v[j] > hi[0]:
            hi = (v[j], start + j)
    return tuple(walk(np.array([lo[1], hi[1]])).tolist())


def estimate_range(sm: SchedulingMap, box: Mapping[str, tuple[float, float]],
                   grid_per_dim: int = 10001) -> RangeBox:
    """Scheduling extrema over a dense grid on the (x, u) box.

    Each entry is scanned over a regular grid of ``grid_per_dim`` points
    per dimension spanning its own dependency footprint (components the
    entry does not use cannot move its extrema, so they are not
    gridded).  An entry whose footprint grid would exceed
    ``RANGE_GRID_BUDGET`` points raises RangeGridError; pass a coarser
    grid in that case.  Reported intervals are widened outward by 0.5%
    of each endpoint's magnitude; the raw extrema are kept alongside.

    One loop walks the grid in ``itertools.product`` order, in blocks of
    at most ``RANGE_BLOCK`` points, so memory does not grow with the
    grid.  Each block is evaluated at once through the numpy table
    (:func:`compile_array`) with every floating-point flag but underflow
    raised.  A block the table has no code for (a deferred integral),
    or that raises or gives a non-finite value, is walked point by point
    through the entry's compiled scalar function (:func:`compile_scalar`)
    instead.  The raw extrema are the first grid points with the least
    and the greatest value, and their values are the scalar function's
    at those points.  Only the scalar function raises: a domain error or
    a non-finite value raises SchedulingError naming the entry and the
    grid point.  It runs on numpy scalars, as in ``simulate``, so
    ``tanh(1/x1)`` is 1 at x1 = 0.  The table agrees with it to a few
    ulp, so in an entry with walked and table blocks a near-tie may pick
    another extremal point than a wholly scalar scan would.
    """
    if grid_per_dim < 2:
        raise RangeGridError("grid_per_dim must be at least 2")
    raw = []
    for idx, (e, fp) in enumerate(zip(sm.entries, sm.footprints)):
        missing = [n for n in fp if n not in box]
        if missing:
            raise ModelError(
                f"p{idx + 1} needs bounds for {', '.join(missing)}")
        points = grid_per_dim ** len(fp)
        if points > RANGE_GRID_BUDGET:
            raise RangeGridError(
                f"p{idx + 1} depends on {len(fp)} components; "
                f"{grid_per_dim}^{len(fp)} = {points} grid points exceed the "
                f"budget of {RANGE_GRID_BUDGET}; use a coarser grid")
        axes = []
        for n in fp:
            lo, hi = box[n]
            _check_interval(n, lo, hi)
            axes.append(np.linspace(lo, hi, grid_per_dim))
        raw.append(_scan(idx, fp, axes, compile_scalar(e, fp),
                         compile_array(e, fp)))
    return RangeBox(
        raw=tuple(raw),
        reported=tuple(_widen(lo, hi) for lo, hi in raw),
        grid_per_dim=grid_per_dim,
        box={k: (float(v[0]), float(v[1])) for k, v in box.items()},
    )


# ---------------------------------------------------------------------------
# embedding verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    """Worst-case reconstruction residuals over sampled (x, u) points."""

    f_max: np.ndarray               # per state equation
    h_max: np.ndarray               # per output equation
    f_worst: list                   # (x, u) attaining each state residual
    h_worst: list
    samples: int
    seed: int
    box: dict[str, tuple[float, float]]

    @property
    def max_residual(self) -> float:
        """Worst residual over all equations; NaN or inf if any was."""
        return float(np.max(np.concatenate((self.f_max, self.h_max)),
                            initial=0.0))

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "box": {k: list(v) for k, v in self.box.items()},
            "max_residual": _json_float(self.max_residual),
            "f_max": [_json_float(v) for v in self.f_max],
            "h_max": [_json_float(v) for v in self.h_max],
            "f_worst": [[list(map(_json_float, x)), list(map(_json_float, u))]
                        for x, u in self.f_worst],
            "h_worst": [[list(map(_json_float, x)), list(map(_json_float, u))]
                        for x, u in self.h_worst],
        }


def default_box(model: NlssModel) -> dict[str, tuple[float, float]]:
    """Unit box [-1, 1] per component, used when no box is declared."""
    return {n: (-1.0, 1.0) for n in model.var_names}


# an overflowing model warns from numpy and from generated code; the
# non-finite residual it leaves fails the check instead
@np.errstate(all="ignore")
def verify_embedding(model: NlssModel, m: LpvssModel, sm: SchedulingMap,
                     samples: int = 1000,
                     box: Mapping[str, tuple[float, float]] | None = None,
                     seed: int = 0) -> VerifyReport:
    """Sample the box and compare the LPV realization against f and h.

    At each point: p = eta(x, u), then A(p)(x - x_bar) + B(p)(u - u_bar)
    + V is checked against f(x, u) entrywise (outputs likewise), through
    the sparse maps of :meth:`LpvssModel.affine_maps`, built once per
    call, and f and h compiled together by :func:`compile_vector`.  The
    report carries per-equation worst residuals and where they occurred:
    the first largest, or the first non-finite one (from a non-finite f
    or realization value), which fails the check.  ``samples`` must be at
    least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if box is None:
        box = default_box(model)
    rng = np.random.default_rng(seed)
    names = model.var_names
    for n in names:
        _check_interval(n, *box[n])
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])
    pts = lo + (hi - lo) * rng.random((samples, len(names)))

    fh = compile_vector(model.f + model.h, names)
    state_map, output_map = m.affine_maps()
    res = np.empty((samples, model.nx + model.ny))
    for n, row in enumerate(pts):
        x, u = row[:model.nx], row[model.nx:]
        p = sm.evaluate(x, u)
        res[n] = np.abs(np.concatenate((state_map(p, x, u),
                                        output_map(p, x, u))) - fh(*row))
    # per equation, the first non-finite residual if any, else the first
    # largest
    bad = ~np.isfinite(res)
    at = np.where(bad.any(axis=0), bad.argmax(axis=0), res.argmax(axis=0))
    worst = res[at, np.arange(res.shape[1])]
    where = [(tuple(pts[k, :model.nx]), tuple(pts[k, model.nx:])) for k in at]
    return VerifyReport(worst[:model.nx], worst[model.nx:],
                        where[:model.nx], where[model.nx:],
                        samples, seed, {k: (float(v[0]), float(v[1]))
                                        for k, v in box.items()})
