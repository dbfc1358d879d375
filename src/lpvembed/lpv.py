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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .expr import Expr, Add, Mul, EvalError, compile_scalar, mul, to_string
from .factorize import (
    Anchor, FactorizedSystem, ModelError, NlssModel, var_sort_key,
)

RANGE_GRID_BUDGET = 10_000_000


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
    _compiled: list = field(default=None, repr=False, compare=False)

    @property
    def np(self) -> int:
        return len(self.entries)

    @property
    def footprints(self) -> tuple[tuple[str, ...], ...]:
        """Per-entry (x, u) components the entry actually depends on."""
        return tuple(
            tuple(sorted(e.free_vars(), key=var_sort_key)) for e in self.entries
        )

    def _fns(self):
        if self._compiled is None:
            self._compiled = [compile_scalar(e, self.var_names)
                              for e in self.entries]
        return self._compiled

    def evaluate(self, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        args = tuple(x) + tuple(u)
        out = np.empty(len(self.entries))
        for i, fn in enumerate(self._fns()):
            try:
                out[i] = fn(*args)
            except (EvalError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise SchedulingError(i, exc) from exc
        return out

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
class LpvssModel:
    """Affine LPV state-space model.

    Coefficient families are stacked arrays: ``A[0]`` is the constant
    part and ``A[1 + i]`` the coefficient of p_{i+1}; likewise B, C, D.
    The realization identity, with (dx, du) = (x - x_bar, u - u_bar):

        f(x, u) = A(p) dx + B(p) du + V,   p = eta(x, u)

    and the output analogue with C, D, W.  For the default origin
    anchor dx = x and du = u.

    Every coefficient and offset must be finite.  The dense arrays are
    the only stored form: the artifact holds them, :meth:`matrices` and
    :func:`verify_embedding` contract them, and edits to them take
    effect on the next call.  Most of their entries are zero (a
    30-pendulum chain keeps 206 of 320,400 entries of A), so simulation
    evaluates the realization through :meth:`affine_maps`, which
    gathers the nonzeros afresh on every call.
    """

    nx: int
    nu: int
    ny: int
    np: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    V: np.ndarray
    W: np.ndarray
    anchor: Anchor
    sample_time: float = 0.0
    range_box: RangeBox | None = None

    def __post_init__(self):
        expected = {
            "A": (self.np + 1, self.nx, self.nx),
            "B": (self.np + 1, self.nx, self.nu),
            "C": (self.np + 1, self.ny, self.nx),
            "D": (self.np + 1, self.ny, self.nu),
            "V": (self.nx,),
            "W": (self.ny,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ModelError(f"{name} has shape {arr.shape}, expected {shape}")
            # min and max see any inf or NaN without a full-size mask
            if not np.isfinite([arr.min(initial=0), arr.max(initial=0)]).all():
                at = np.argwhere(~np.isfinite(arr))[0].tolist()
                raise ModelError(f"{name}{at} = {arr[tuple(at)]} is not finite")

    def matrices(self, p: Sequence[float]):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.np,):
            raise ModelError(f"expected {self.np} scheduling values, got {p.shape}")
        w = np.concatenate(((1.0,), p))
        return (np.tensordot(w, self.A, axes=1),
                np.tensordot(w, self.B, axes=1),
                np.tensordot(w, self.C, axes=1),
                np.tensordot(w, self.D, axes=1))

    def affine_maps(self):
        """The realization as a sparse state map and output map.

        Returns ``(state, output)``: ``state(p, x, u)`` is
        ``A(p)(x - x_bar) + B(p)(u - u_bar) + V`` and ``output(p, x, u)``
        its analogue with C, D, W.  Each map keeps the nonzero
        coefficients of ``[X | U]`` as triplets (k, i, j, c) and sums
        ``c * w[k] * z[j]`` into row i, with ``w = [1, p]`` and
        ``z = [x - x_bar, u - u_bar]``, so its cost follows the nonzero
        count rather than ``np * nx^2``.  The maps copy the current
        coefficients; build them again after editing the arrays.  They
        sum in another order than :meth:`matrices` and agree with it to
        rounding, not bit for bit.
        """
        bar = np.concatenate((self.anchor.x_bar, self.anchor.u_bar))

        def sparse(X, U, offset):
            XU = np.concatenate((X, U), axis=2)
            k, i, j = np.nonzero(XU)
            c = XU[k, i, j]
            rows = XU.shape[1]

            def apply(p, x, u):
                w = np.concatenate(((1.0,), p))
                z = np.concatenate((x, u)) - bar
                return np.bincount(i, weights=c * w[k] * z[j],
                                   minlength=rows) + offset
            return apply

        return sparse(self.A, self.B, self.V), sparse(self.C, self.D, self.W)


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
    # (tag, k, i, j, coeff): k = 0 for constant terms, else 1 + the index
    # of the factor, numbered in discovery order
    index: dict[Expr, int] = {}
    hits = []
    for tag, block in blocks.items():
        for i, row in enumerate(block.entries):
            for j, e in enumerate(row):
                terms = e.terms if split and isinstance(e, Add) else (e,)
                for term in terms:
                    if not term.free_vars():
                        hits.append((tag, 0, i, j, term.eval({})))
                        continue
                    coeff, factor = _split_term(term) if split else (1.0, term)
                    k = index.setdefault(factor, len(index)) + 1
                    hits.append((tag, k, i, j, coeff))
    arrays = {t: np.zeros((len(index) + 1,) + b.shape) for t, b in blocks.items()}
    for tag, k, i, j, coeff in hits:
        arrays[tag][k, i, j] += coeff
    m = fs.model
    model = LpvssModel(nx=m.nx, nu=m.nu, ny=m.ny, np=len(index), **arrays,
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


def estimate_range(sm: SchedulingMap, box: Mapping[str, tuple[float, float]],
                   grid_per_dim: int = 10001,
                   budget: int = RANGE_GRID_BUDGET) -> RangeBox:
    """Scheduling extrema over a dense grid on the (x, u) box.

    Each entry is scanned over a regular grid of ``grid_per_dim`` points
    per dimension spanning its own dependency footprint (components the
    entry does not use cannot move its extrema, so they are not
    gridded).  An entry whose footprint grid would exceed ``budget``
    points raises RangeGridError; pass a coarser grid in that case.
    Reported intervals are widened outward by 0.5% of each endpoint's
    magnitude; the raw extrema are kept alongside.
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
        if points > budget:
            raise RangeGridError(
                f"p{idx + 1} depends on {len(fp)} components; "
                f"{grid_per_dim}^{len(fp)} = {points} grid points exceed the "
                f"budget of {budget}; use a coarser grid")
        axes = []
        for n in fp:
            lo, hi = box[n]
            _check_interval(n, lo, hi)
            axes.append(np.linspace(lo, hi, grid_per_dim))
        fn = compile_scalar(e, fp)
        lo = hi = None
        for pt in itertools.product(*axes):
            try:
                v = fn(*pt)
            except (EvalError, ValueError, ZeroDivisionError,
                    OverflowError) as exc:
                raise SchedulingError(idx, exc) from exc
            if not math.isfinite(v):
                where = ", ".join(f"{n}={float(c)!r}" for n, c in zip(fp, pt))
                raise SchedulingError(idx, ValueError(
                    f"non-finite value {v!r} at grid point {where}"))
            if lo is None or v < lo:
                lo = v
            if hi is None or v > hi:
                hi = v
        raw.append((lo, hi))
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
    + V is checked against f(x, u) entrywise (outputs likewise).  The
    report carries per-equation worst residuals and where they occurred.
    A non-finite residual (from a non-finite f or realization value)
    fails: the first one becomes its equation's worst point and stays.
    """
    if box is None:
        box = default_box(model)
    rng = np.random.default_rng(seed)
    names = model.var_names
    for n in names:
        _check_interval(n, *box[n])
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])
    pts = lo + (hi - lo) * rng.random((samples, len(names)))

    f_fns = [compile_scalar(e, names) for e in model.f]
    h_fns = [compile_scalar(e, names) for e in model.h]
    x_bar = np.asarray(m.anchor.x_bar)
    u_bar = np.asarray(m.anchor.u_bar)

    f_max = np.zeros(model.nx)
    h_max = np.zeros(model.ny)
    f_worst = [None] * model.nx
    h_worst = [None] * model.ny
    for row in pts:
        x = row[:model.nx]
        u = row[model.nx:]
        p = sm.evaluate(x, u)
        A, B, C, D = m.matrices(p)
        dx = x - x_bar
        du = u - u_bar
        f_lpv = A @ dx + B @ du + m.V
        h_lpv = C @ dx + D @ du + m.W
        args = tuple(row)
        for lpv, fns, worst_r, worst_at in ((f_lpv, f_fns, f_max, f_worst),
                                            (h_lpv, h_fns, h_max, h_worst)):
            for i, fn in enumerate(fns):
                r = abs(lpv[i] - fn(*args))
                # "not r <= ..." also takes a NaN residual; a non-finite
                # worst is never replaced
                if worst_at[i] is None or (not r <= worst_r[i]
                                           and math.isfinite(worst_r[i])):
                    worst_r[i] = r
                    worst_at[i] = (tuple(x), tuple(u))
    return VerifyReport(f_max, h_max, f_worst, h_worst,
                        samples, seed, {k: (float(v[0]), float(v[1]))
                                        for k, v in box.items()})
