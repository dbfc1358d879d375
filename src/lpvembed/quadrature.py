"""Adaptive Gauss-Kronrod 7-15 quadrature on finite intervals.

Each interval is estimated with the 15-point Kronrod rule; the embedded
7-point Gauss rule shares its odd nodes and the absolute difference of
the two estimates serves as the interval's error bound.  The interval
with the largest bound is bisected until the summed bounds fall below
``max(ABS_TOL, REL_TOL * |integral|)`` (:func:`unsettled`, which a
caller holding many first panels at once applies to all of them, as it
takes the first bisection of all of them with :func:`bisected`) or the
subdivision budget runs out, in which case
:class:`QuadratureConvergenceError` is raised still carrying the best
estimate.

The two central weights are not the textbook values but are derived at
import time as ``2 - sum(other weights)`` accumulated in evaluation
order.  Both rules then integrate constants without rounding error, so
a constant integrand converges in a single panel with a zero error
estimate.  The remaining weights and nodes are the standard 15-digit
values.

The adaptive loop works on panels, not on an integrand:
:func:`integrate` takes a function that returns one panel's estimates on
any interval.  :func:`panel` is that function for a Python integrand,
one call per node; deferred integral entries instead generate theirs as
straight-line code (:func:`lpvembed.expr.compile_panel`) from
:data:`RULE`, with :func:`panel`'s arithmetic, node for node and in its
order of accumulation, so both give the same floats.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

from .expr import EvalError

# Kronrod nodes on (0, 1], paired symmetrically about the interval
# midpoint.  Odd entries (indices 1, 3, 5) are the Gauss-7 nodes.
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)

_WK_PAIRS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)

_WG_PAIRS = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
)

# central weights chosen so each rule's weights sum to exactly 2.0 when
# accumulated pair-first, centre-last (the order panel uses)
_s = 0.0
for _w in _WK_PAIRS:
    _s += 2.0 * _w
_WK_CENTER = 2.0 - _s

_s = 0.0
for _w in _WG_PAIRS:
    _s += 2.0 * _w
_WG_CENTER = 2.0 - _s
del _s, _w

# the node pairs in panel's order: (node, Kronrod weight, Gauss weight
# or None where the Gauss rule has no node)
_RULE = tuple((x, wk, _WG_PAIRS[i // 2] if i % 2 == 1 else None)
              for i, (x, wk) in enumerate(zip(_XK, _WK_PAIRS)))

# the rule as panel applies it, for panels generated as code: the node
# pairs and the two centre weights
RULE = (_RULE, _WK_CENTER, _WG_CENTER)


# integrate's tolerances and budget, which every deferred integral entry uses
ABS_TOL = 1e-10
REL_TOL = 1e-8
MAX_SUBDIVISIONS = 2000


def unsettled(err, value):
    """``err > max(ABS_TOL, REL_TOL * abs(value))``, integrate's test that
    an estimate ``value`` with error bound ``err`` needs more panels, on
    floats or elementwise on arrays, with the tolerances read at call
    time.  As there, a NaN ``REL_TOL * abs(value)`` leaves ABS_TOL as the
    bound and a NaN ``err`` settles."""
    rel = REL_TOL * abs(value)
    # max keeps ABS_TOL unless rel > ABS_TOL; on bools, a <= b is "a
    # implies b", so this holds on floats and on numpy arrays alike
    return (err > ABS_TOL) & ((rel > ABS_TOL) <= (err > rel))


class QuadratureConvergenceError(EvalError):
    """Subdivision budget exhausted before meeting the tolerance.

    An EvalError, so the caller names the entry that fails.  Carries
    the best available estimate and its error bound so callers can
    still inspect how far the integration got.
    """

    def __init__(self, estimate: float, error: float, subdivisions: int):
        super().__init__(
            f"integral did not converge after {subdivisions} subdivisions: "
            f"estimate {estimate!r}, error bound {error!r}")
        self.estimate = estimate
        self.error = error
        self.subdivisions = subdivisions


class QuadResult(NamedTuple):
    value: float
    error: float          # summed |K15 - G7| over all panels
    evaluations: int      # integrand calls
    subdivisions: int     # bisections performed


def panel(f: Callable[[float], float], a: float, b: float):
    """One K15/G7 evaluation over [a, b]: (kronrod, gauss, |diff|)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc_k = 0.0
    acc_g = 0.0
    for x, wk, wg in _RULE:
        dx = half * x
        pair = f(mid - dx) + f(mid + dx)
        acc_k += wk * pair
        if wg is not None:
            acc_g += wg * pair
    fc = f(mid)
    acc_k += _WK_CENTER * fc
    acc_g += _WG_CENTER * fc
    k = half * acc_k
    g = half * acc_g
    return k, g, abs(k - g)


def _refined(total, total_err, pk, neg_err, k1, e1, k2, e2):
    """The estimate and error bound once the panel with estimate ``pk``
    and error bound ``-neg_err`` is replaced by its halves, (k1, e1) and
    (k2, e2): integrate's update, on floats or elementwise on arrays."""
    return total + ((k1 + k2) - pk), total_err + ((e1 + e2) + neg_err)


def bisected(panel, a: float, b: float, k, err):
    """Integrate's estimate and error bound after its first bisection of
    [a, b], from the first panel's estimate ``k`` and error bound ``err``
    on [a, b].  ``panel(p, q)`` is as for :func:`integrate`; on arrays of
    points (a panel in the numpy table) this bisects all of them at once,
    and gives each point's floats as integrate has them after that
    bisection.  Integrate bisects only where ``unsettled(err, k)`` and
    ``MAX_SUBDIVISIONS >= 1``, and returns the result where it is then
    not :func:`unsettled`; the caller checks both."""
    m = 0.5 * (a + b)
    k1, _, e1 = panel(a, m)
    k2, _, e2 = panel(m, b)
    return _refined(k, err, k, -err, k1, e1, k2, e2)


def integrate(panel: Callable[[float, float], tuple[float, float, float]],
              a: float, b: float) -> QuadResult:
    """Integrate over [a, b] adaptively to ABS_TOL and REL_TOL.

    ``panel(p, q)`` returns one panel's ``(kronrod, gauss, |diff|)`` on
    [p, q], for the first panel and each half of every bisection, and
    counts as 15 evaluations; ``partial(quadrature.panel, f)`` is that
    function for an integrand ``f``.  Raises QuadratureConvergenceError
    when the error bound is still above tolerance after MAX_SUBDIVISIONS
    bisections.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0, 0)

    k, g, err = panel(a, b)
    evals = 15
    # heap of (-error, insertion counter, a, b, estimate); the counter
    # breaks ties deterministically and keeps tuples orderable
    counter = 0
    heap = [(-err, counter, a, b, k)]
    total = k
    total_err = err
    subdivisions = 0

    while unsettled(total_err, total):
        if subdivisions >= MAX_SUBDIVISIONS:
            raise QuadratureConvergenceError(total, total_err, subdivisions)
        neg_err, _, pa, pb, pk = heapq.heappop(heap)
        if neg_err == 0.0:
            # worst panel claims zero error, so every panel does; any
            # residual in total_err is accumulation drift
            total_err = 0.0
            break
        pm = 0.5 * (pa + pb)
        if pm == pa or pm == pb:
            # panel at floating point resolution; accept it as-is
            total_err += neg_err
            if not math.isfinite(total_err) or total_err < 0.0:
                total_err = 0.0
            if not heap:
                break
            continue
        k1, _, e1 = panel(pa, pm)
        k2, _, e2 = panel(pm, pb)
        evals += 30
        subdivisions += 1
        total, total_err = _refined(total, total_err, pk, neg_err, k1, e1,
                                    k2, e2)
        counter += 1
        heapq.heappush(heap, (-e1, counter, pa, pm, k1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, pm, pb, k2))

    return QuadResult(total, total_err, evals, subdivisions)
