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

The scheduling map is compiled for two tables.  For one point at a
time (simulation), into one function that returns all of p (see
:func:`compile_vector`), called on Python floats, with numpy scalars
only as a retry (see :func:`call_floats`).  For blocks of points, each
entry into a numpy function of its own footprint (see
:func:`compile_array`), compiled once per map and shared by the range
scan and verification.  Both block paths fall back through one rule
(:func:`_blocks`): a block that raises or is not finite is walked point
by point through the scalar functions, so only those raise.  A failing
entry raises EntryError, which names it and where it failed: ``p2: ln
of non-positive value at grid point x1=-1.0`` in the range scan, ``at
sample x1=...`` at verification's first failing sample.  A deferred
integral that does not converge is such a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Mapping, Sequence

import numpy as np

from .expr import (EVAL_ERRORS, Add, EntryError, EvalError, Expr, Mul,
                   call_floats, compile_array, compile_arrays,
                   compile_scalar, compile_vector, constant_value, mul,
                   to_string)
from .factorize import (
    Anchor, FactorizedSystem, ModelError, NlssModel, check_sample_time,
    var_sort_key,
)

RANGE_GRID_BUDGET = 10_000_000
RANGE_BLOCK = 1 << 16      # grid points per numpy evaluation in the scan
# floats per (triplet, sample) temporary of one block of verification:
# a block holds this many divided by the larger map's triplet count
VERIFY_BLOCK = 1 << 14
# most floats verify_embedding may allocate for its sample points and
# residuals, checked before it allocates them
VERIFY_FLOAT_BUDGET = 10_000_000


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
        return compile_vector(self.entries, self.var_names, "p")

    @cached_property
    def _arrays(self):
        # each entry through the numpy table, a function of its
        # footprint: the range scan's and verification's blocks share them
        return tuple(compile_array(e, fp)
                     for e, fp in zip(self.entries, self.footprints))

    def evaluate(self, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        return np.array(call_floats(self._vector, x, u), dtype=float)

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
    must be finite, and ``sample_time`` follows :class:`NlssModel`'s
    convention.  :meth:`from_dense` builds a model from dense arrays.
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
        check_sample_time(self.sample_time)

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

    def _merged(self):
        """The triplets of each map, state then output: ``(k, i, j, c,
        rows, offset)`` of ``[X | U]`` for (X, U) = (A, B), then (C, D),
        U's columns shifted by nx, in row-major (k, i, j) order."""
        f = self.coeffs
        for X, U, offset in ((f["A"], f["B"], self.V),
                             (f["C"], f["D"], self.W)):
            _, rows, nx = X.shape
            cols = nx + U.shape[2]
            k, i, j, c = (np.concatenate(pair) for pair in (
                (X.k, U.k), (X.i, U.i), (X.j, U.j + nx), (X.c, U.c)))
            order = np.argsort((k * rows + i) * cols + j)
            yield k[order], i[order], j[order], c[order], rows, offset

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
        :meth:`block_maps` is the same realization on many samples.
        """
        bar = np.concatenate((self.anchor.x_bar, self.anchor.u_bar))

        def sparse(k, i, j, c, rows, offset):
            def apply(p, x, u):
                w = np.concatenate(((1.0,), p))
                z = np.concatenate((x, u)) - bar
                return np.bincount(i, weights=c * w[k] * z[j],
                                   minlength=rows) + offset
            return apply
        return tuple(sparse(*merged) for merged in self._merged())

    def block_maps(self):
        """:meth:`affine_maps` on many samples at once.

        Returns ``(state, output)``.  ``state(w, z)`` takes one
        column per sample, ``w`` (np + 1, n) holding ``[1, p]`` and ``z``
        (nx + nu, n) holding ``[x - x_bar, u - u_bar]``, and returns the
        (nx, n) realization.  One ``np.bincount`` over (row, sample) bins
        sums ``(c * w[k]) * z[j]`` in triplet order, so each column is
        what :meth:`affine_maps` gives for its sample, bit for bit.  Its
        temporaries hold (triplets, n) floats.
        """
        def sparse(k, i, j, c, rows, offset):
            def apply(w, z):
                n = w.shape[1]
                bins = i[:, None] * n + np.arange(n)
                weights = (c[:, None] * w[k]) * z[j]
                return (np.bincount(bins.ravel(), weights=weights.ravel(),
                                    minlength=rows * n).reshape(rows, n)
                        + offset[:, None])
            return apply
        return tuple(sparse(*merged) for merged in self._merged())


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
        coeff = constant_value(mul(*const_part))
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
        for (i, j), e in block.nonzeros.items():
            terms = e.terms if split and isinstance(e, Add) else (e,)
            for term in terms:
                if not term.free_vars():
                    k, coeff = 0, constant_value(term)
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


def _blocks(n: int, size: int, block, walk):
    """``(start, values)`` of items ``start:stop`` of ``n``, per block of
    ``size``: ``block(start, stop)`` with every floating-point flag but
    underflow raised, or ``walk(start, stop)`` point by point where that
    raises an evaluation error, returns None or is not finite."""
    for start in range(0, n, size):
        stop = min(start + size, n)
        try:
            with np.errstate(all="raise", under="ignore"):
                v = block(start, stop)
        except (FloatingPointError, *EVAL_ERRORS):
            v = None
        if v is None or not np.isfinite(v).all():
            v = walk(start, stop)
        yield start, v


def _scan(idx: int, fp: Sequence[str], axes, fn, vec) -> tuple[float, float]:
    """(lo, hi) of entry ``idx`` over the grid of ``axes``, as
    :func:`estimate_range` describes: blocks through ``vec``, and point
    by point through ``fn`` where a block falls back (:func:`_blocks`)."""
    shape = tuple(len(a) for a in axes)

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
            raise EntryError(f"p{idx + 1}", idx, exc).at(
                "grid point", fp, pt) from exc
        return v

    def walk(flat) -> np.ndarray:  # fn point by point, on numpy scalars
        pts = zip(*columns(flat)) if axes else [()] * flat.size
        with np.errstate(all="ignore"):   # an inf or a NaN is checked here
            return np.fromiter(map(value, pts), float, flat.size)

    def block(start, stop):        # a constant is one number
        return np.broadcast_to(vec(*columns(np.arange(start, stop))),
                               (stop - start,))

    lo = hi = None                 # (value, flat index)
    for start, v in _blocks(math.prod(shape), RANGE_BLOCK, block,
                            lambda start, stop: walk(np.arange(start, stop))):
        i, j = int(v.argmin()), int(v.argmax())
        if lo is None or v[i] < lo[0]:
            lo = (v[i], start + i)
        if hi is None or v[j] > hi[0]:
            hi = (v[j], start + j)
    return tuple(walk(np.array([lo[1], hi[1]])).tolist())


def estimate_range(sm: SchedulingMap,
                   box: Mapping[str, tuple[float, float]] | None,
                   grid_per_dim: int = 10001) -> RangeBox:
    """Scheduling extrema over a dense grid on the (x, u) box.

    Each entry is scanned over a regular grid of ``grid_per_dim`` points
    per dimension spanning its own dependency footprint (components the
    entry does not use cannot move its extrema, so they are not
    gridded); a footprint variable without bounds in ``box`` (None is
    an empty box) raises ModelError.  An entry whose footprint grid
    would exceed ``RANGE_GRID_BUDGET`` points raises RangeGridError;
    pass a coarser grid in that case.  Reported intervals are widened
    outward by 0.5% of each endpoint's magnitude; the raw extrema are
    kept alongside.

    One loop walks the grid in ``itertools.product`` order, in blocks of
    at most ``RANGE_BLOCK`` points, so memory does not grow with the
    grid.  Each block is evaluated at once through the numpy table
    (:func:`compile_array`) with every floating-point flag but underflow
    raised, through the entry's function that verification shares
    (cached on the map).  There a deferred integral runs one quadrature
    panel at every point, bisects once where it does not settle, and
    integrates through ``at`` only the points that neither settles
    (``DeferredIntegral.at_array``).  A block that raises (an
    evaluation error, a quadrature that does not converge among them) or
    gives a non-finite value is walked point by point through the
    entry's compiled scalar function (:func:`compile_scalar`)
    instead.  The raw extrema are the first grid points with the least
    and the greatest value, and their values are the scalar function's
    at those points.  Only the scalar function raises, so the scan
    raises what a wholly scalar scan raises: a domain error or a
    non-finite value raises EntryError naming the entry and the grid
    point.  It runs on numpy scalars, so ``tanh(1/x1)`` is 1 at x1 = 0,
    as in ``simulate``, which calls on floats and retries a failing call
    on numpy scalars (:func:`call_floats`).  The table agrees with it to
    a few ulp (a deferred integral's panel may then settle a point that
    ``at`` subdivides, within quadrature's tolerance), so a near-tie may
    pick another extremal point than a wholly scalar scan would.
    """
    if grid_per_dim < 2:
        raise RangeGridError("grid_per_dim must be at least 2")
    box = {} if box is None else box
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
                         sm._arrays[idx]))
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


def check_samples(model: NlssModel, samples: int) -> None:
    """Raise ValueError unless :func:`verify_embedding` can take
    ``samples`` for ``model``: at least 1, and few enough that its
    sample points and residuals fit ``VERIFY_FLOAT_BUDGET``."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    floats = samples * (2 * model.nx + model.nu + model.ny)
    if floats > VERIFY_FLOAT_BUDGET:
        raise ValueError(f"samples = {samples} needs {floats} floats, over "
                         f"the verification budget of {VERIFY_FLOAT_BUDGET}")


# an overflowing model warns from numpy and from generated code; the
# non-finite residual it leaves fails the check instead
@np.errstate(all="ignore")
def verify_embedding(model: NlssModel, m: LpvssModel, sm: SchedulingMap,
                     samples: int = 1000,
                     box: Mapping[str, tuple[float, float]] | None = None,
                     seed: int = 0) -> VerifyReport:
    """Sample the box and compare the LPV realization against f and h.

    At each point: p = eta(x, u), then A(p)(x - x_bar) + B(p)(u - u_bar)
    + V is checked against f(x, u) entrywise (outputs likewise).  The
    samples go in blocks of ``VERIFY_BLOCK`` divided by the larger sparse
    map's triplet count, so a block's (triplet, sample) temporaries stay
    bounded.  Each block is evaluated at once through the numpy table,
    with every floating-point flag but underflow raised: p through the
    scheduling map's per-entry functions, which the range scan shares,
    a deferred integral through ``at_array``; f and h through
    :func:`compile_arrays`; the maps through
    :meth:`LpvssModel.block_maps`, which sum as the one-sample maps do.
    A block that raises (an evaluation error, a quadrature that does not
    converge among them), or that gives a non-finite p or residual, is
    walked sample by sample as a wholly scalar check does: p by
    :meth:`SchedulingMap.evaluate`, f and h each compiled by
    :func:`compile_vector` and called by :func:`call_floats`, the maps by
    :meth:`LpvssModel.affine_maps`.  So only the walk raises: an entry of
    p, f or h that fails raises EntryError, naming it and the first
    sample where it does: ``f1: ln of non-positive value at sample
    x1=-0.9, u1=0.3``.  The table agrees with the scalar functions to
    a few ulp, and so do the residuals.  The report carries per-equation
    worst residuals and where they occurred: the first largest, or the
    first non-finite one (from a non-finite f or realization value),
    which fails the check.  ``samples`` must pass :func:`check_samples`,
    ``seed`` must be non-negative, and ``box`` must bound every variable
    (ModelError names those it does not).
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    check_samples(model, samples)
    if box is None:
        box = default_box(model)
    names = model.var_names
    missing = [n for n in names if n not in box]
    if missing:
        raise ModelError(f"verification needs bounds for {', '.join(missing)}")
    rng = np.random.default_rng(seed)
    for n in names:
        _check_interval(n, *box[n])
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])
    pts = lo + (hi - lo) * rng.random((samples, len(names)))

    nx, ny = model.nx, model.ny
    column = {n: c for c, n in enumerate(names)}
    entries = [(vec, [column[n] for n in fp])
               for vec, fp in zip(sm._arrays, sm.footprints)]
    fh = compile_arrays(model.f + model.h, names)
    state_map, output_map = m.block_maps()
    bar = np.concatenate((m.anchor.x_bar, m.anchor.u_bar))

    def block(rows) -> np.ndarray | None:
        # the block's residuals, or None where a p is not finite
        cols = rows.T
        w = np.empty((len(entries) + 1, len(rows)))
        w[0] = 1.0
        for k, (vec, fp) in enumerate(entries, 1):
            w[k] = vec(*(cols[c] for c in fp))
        if not np.isfinite(w).all():
            return None
        z = (rows - bar).T
        lpv = np.concatenate((state_map(w, z), output_map(w, z)))
        for r, v in enumerate(fh(*cols)):
            lpv[r] -= v
        return np.abs(lpv).T

    @cache
    def scalar():  # compiled only for a block that falls back
        return (compile_vector(model.f, names, "f"),
                compile_vector(model.h, names, "h"), *m.affine_maps())

    def walk(rows) -> np.ndarray:
        f, h, state, output = scalar()
        out = np.empty((len(rows), nx + ny))
        for n, row in enumerate(rows):
            x, u = row[:nx], row[nx:]
            try:
                p = sm.evaluate(x, u)
                want = call_floats(f, x, u) + call_floats(h, x, u)
            except EntryError as exc:
                raise exc.at("sample", names, row) from exc
            out[n] = np.abs(np.concatenate((state(p, x, u), output(p, x, u)))
                            - want)
        return out

    triplets = max(m.coeffs[X].c.size + m.coeffs[U].c.size
                   for X, U in ("AB", "CD"))
    size = max(1, VERIFY_BLOCK // max(triplets, 1))
    res = np.empty((samples, nx + ny))
    for start, r in _blocks(samples, size,
                            lambda start, stop: block(pts[start:stop]),
                            lambda start, stop: walk(pts[start:stop])):
        res[start:start + len(r)] = r
    # per equation, the first non-finite residual if any, else the first
    # largest
    bad = ~np.isfinite(res)
    at = np.where(bad.any(axis=0), bad.argmax(axis=0), res.argmax(axis=0))
    worst = res[at, np.arange(res.shape[1])]
    where = [(tuple(pts[k, :nx]), tuple(pts[k, nx:])) for k in at]
    return VerifyReport(worst[:nx], worst[nx:], where[:nx], where[nx:],
                        samples, seed, {k: (float(v[0]), float(v[1]))
                                        for k, v in box.items()})
