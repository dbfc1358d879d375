"""Adaptive Gauss-Kronrod quadrature checked against closed forms and an
independent composite-Simpson oracle."""

import math
from functools import partial
from itertools import product

import numpy as np
import pytest

from lpvembed import quadrature
from lpvembed.expr import (
    EVAL_ERRORS, EvalError, compile_panel, compile_scalar,
)
from lpvembed.parser import parse_expr
from lpvembed.quadrature import (
    RULE, QuadratureConvergenceError, QuadResult, integrate, panel, unsettled,
)


def quad(f, a, b):
    """``integrate`` on the panels of the integrand ``f``."""
    return integrate(partial(panel, f), a, b)


def simpson(f, a, b, n=20000):
    # independent oracle; n must be even
    h = (b - a) / n
    s = f(a) + f(b)
    for i in range(1, n):
        s += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return s * h / 3.0


def test_constant_is_exact_in_one_panel():
    r = quad(lambda t: 5.0, 0.0, 1.0)
    assert r.value == 5.0
    assert r.error == 0.0
    assert r.evaluations == 15
    assert r.subdivisions == 0


def test_cosine_against_closed_form():
    r = quad(math.cos, 0.0, 1.0)
    assert r.value == pytest.approx(math.sin(1.0), abs=1e-13)


def test_cosine_against_simpson_oracle():
    r = quad(math.cos, 0.0, 1.0)
    assert r.value == pytest.approx(simpson(math.cos, 0.0, 1.0), abs=1e-10)


def test_integral_that_vanishes():
    r = quad(lambda t: math.cos(math.pi * t), 0.0, 1.0)
    assert abs(r.value) <= 1e-14


def test_oscillatory():
    f = lambda t: math.sin(40.0 * t)
    truth = (1.0 - math.cos(40.0)) / 40.0
    r = quad(f, 0.0, 1.0)
    assert r.value == pytest.approx(truth, abs=1e-11)
    assert r.subdivisions > 0


def test_steep_logistic_against_simpson():
    f = lambda t: 1.0 / (1.0 + math.exp(-200.0 * (t - 0.5)))
    r = quad(f, 0.0, 1.0)
    assert r.value == pytest.approx(simpson(f, 0.0, 1.0, n=200000), abs=1e-9)


def test_sqrt_kink():
    f = lambda t: math.sqrt(abs(t - 1.0 / 3.0))
    truth = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    r = quad(f, 0.0, 1.0)
    assert r.value == pytest.approx(truth, abs=1e-8)


def test_general_interval():
    r = quad(math.exp, -2.0, 3.0)
    assert r.value == pytest.approx(math.exp(3.0) - math.exp(-2.0), rel=1e-12)


def test_reversed_orientation():
    fwd = quad(math.cos, 0.0, 1.0).value
    rev = quad(math.cos, 1.0, 0.0).value
    assert rev == pytest.approx(-fwd, abs=1e-14)


def test_budget_exhaustion_raises(monkeypatch):
    f = lambda t: math.sqrt(abs(t - 1.0 / 3.0))
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-15)
    monkeypatch.setattr(quadrature, "REL_TOL", 0.0)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureConvergenceError) as ei:
        quad(f, 0.0, 1.0)
    err = ei.value
    # the partial estimate is still carried for diagnostics
    truth = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert err.estimate == pytest.approx(truth, abs=1e-3)
    assert err.error > 0.0


def test_a_quadrature_that_does_not_converge_is_an_evaluation_error():
    # so compiled code's callers name the entry, as for a domain error
    assert issubclass(QuadratureConvergenceError, EvalError)
    assert issubclass(QuadratureConvergenceError, EVAL_ERRORS)


def test_tolerances_are_respected(monkeypatch):
    # loose request -> fewer evaluations, tight request -> more
    f = lambda t: math.exp(math.sin(3.0 * t))
    runs = []
    for tol in (1e-4, 1e-12):
        monkeypatch.setattr(quadrature, "ABS_TOL", tol)
        monkeypatch.setattr(quadrature, "REL_TOL", tol)
        runs.append(quad(f, 0.0, 2.0))
    loose, tight = runs
    assert loose.evaluations <= tight.evaluations
    truth = simpson(f, 0.0, 2.0, n=200000)
    assert tight.value == pytest.approx(truth, abs=1e-10)


def scripted(errors):
    """A panel giving each interval its width as both estimates and the
    error ``errors`` holds for it (0.0 if none), recording its calls."""
    calls = []

    def panel(p, q):
        calls.append((p, q))
        return q - p, q - p, errors.get((p, q), 0.0)
    return panel, calls


def test_an_empty_interval_calls_no_panel():
    panel, calls = scripted({})
    assert integrate(panel, 2.0, 2.0) == QuadResult(0.0, 0.0, 0, 0)
    assert calls == []


def test_drift_above_tolerance_stops_at_a_zero_error_panel(monkeypatch):
    # with no tolerance, any error above 0 needs another panel; the
    # bounds 1.0, then 0.1 + 0.2, then 0.0 everywhere leave rounding
    # drift in the summed bound, so the loop ends where the worst panel
    # has a zero bound, with the bound set to 0.0
    monkeypatch.setattr(quadrature, "ABS_TOL", 0.0)
    monkeypatch.setattr(quadrature, "REL_TOL", 0.0)
    assert 1.0 + ((0.1 + 0.2) - 1.0) - 0.2 - 0.1 > 0.0
    panel, calls = scripted({(0.0, 1.0): 1.0, (0.0, 0.5): 0.1,
                             (0.5, 1.0): 0.2})
    assert integrate(panel, 0.0, 1.0) == QuadResult(1.0, 0.0, 105, 3)
    assert calls == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0),
                     (0.5, 0.75), (0.75, 1.0), (0.0, 0.25), (0.25, 0.5)]


def test_a_panel_at_floating_point_resolution_is_accepted():
    # [1, 1 + 2 ulp] bisects once into two panels with no float between
    # their ends; each is accepted as it is, its bound dropped from the
    # sum, worst first, and the loop ends when none is left
    a = 1.0
    m = math.nextafter(a, 2.0)
    b = math.nextafter(m, 2.0)
    panel, calls = scripted({(a, b): 1.0, (a, m): 0.5, (m, b): 0.25})
    assert integrate(panel, a, b) == QuadResult((m - a) + (b - m), 0.0, 45, 1)
    assert calls == [(a, b), (a, m), (m, b)]


def test_result_is_deterministic():
    f = lambda t: math.tanh(4.0 * t) / (1.0 + t * t)
    a = quad(f, 0.0, 1.0)
    b = quad(f, 0.0, 1.0)
    assert a.value == b.value and a.error == b.error


# ------------------------------------------------------ generated panels
# A deferred entry's one compiled function is its integrand's panel as
# straight-line code; on any interval it must be panel's, bit for bit.

def same(a, b):
    """Bitwise equal floats: -0.0 is not 0.0, and NaN is NaN."""
    if a != a:
        return b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(fn, *args):
    """``fn(*args)``, or the message of the math error it raises."""
    try:
        return fn(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


GENERATED = {
    "tanh": ("tanh(lam*x)*x", (1.0, -3.0)),
    "oscillatory": ("sin(40*lam*x)", (1.0, 0.3)),
    "kink": ("sqrt(abs(lam - x))", (1.0 / 3.0, 0.9)),
    "shared": ("sin(lam*x)*cos(x) + sin(lam*x)/(1 + lam*lam)", (2.0, -0.0)),
    "free-of-lam": ("x*x + 1", (0.5, 1e200)),
}


@pytest.mark.parametrize("text, xs", GENERATED.values(), ids=list(GENERATED))
def test_a_generated_panel_is_panel_on_any_interval(text, xs):
    e = parse_expr(text, ("x", "lam"))
    generated = compile_panel(e, "lam", ("x",), RULE)
    fn = compile_scalar(e, ("x", "lam"))
    one = math.nextafter(1.0, 2.0)
    for x in xs:
        f = partial(fn, x)
        # the intervals an adaptive run visits, its halves among them
        visited = []
        integrate(lambda p, q: visited.append((p, q)) or panel(f, p, q),
                  0.0, 1.0)
        # and intervals at floating-point resolution, among subnormals,
        # and with a sum or width past the largest float, where the order
        # of operations shows
        intervals = [(0.0, 1.0), (-2.0, 3.0), (1.0, 0.0), (-0.0, 1.0),
                     (1.0, -0.0), (-0.0, -0.0), (1.0, one), (5e-324, 1e-323),
                     (1e308, 1.5e308), (-1.5e308, 1.5e308)] + visited
        for p, q in intervals:
            got, want = outcome(generated, x, p, q), outcome(panel, f, p, q)
            if isinstance(want, str):
                assert got == want, (x, p, q)
            else:
                assert all(map(same, got, want)), (x, p, q)
        # so integrate on either gives the same result
        assert all(map(same, integrate(partial(generated, x), 0.0, 1.0),
                       integrate(partial(panel, f), 0.0, 1.0)))


def around(v):
    """``v`` and its two neighbouring floats."""
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def test_unsettled_is_integrates_test_on_floats_and_arrays():
    # every pair of special values and the tolerances' boundaries: the
    # error bound at ABS_TOL and at REL_TOL (the relative bound of 1.0),
    # and the value where the relative bound reaches ABS_TOL
    abs_tol, rel_tol = quadrature.ABS_TOL, quadrature.REL_TOL
    values = ([0.0, -0.0, 5e-324, 1.0, math.inf, -math.inf, math.nan]
              + around(abs_tol) + around(rel_tol) + around(abs_tol / rel_tol))
    pairs = list(product(values, repeat=2))
    want = [err > max(abs_tol, rel_tol * abs(value)) for err, value in pairs]
    got = [unsettled(err, value) for err, value in pairs]
    assert got == want
    assert all(type(g) is bool for g in got)  # no numpy on floats
    assert 0 < sum(want) < len(want)
    errs, vals = np.array(pairs).T
    with np.errstate(all="raise", under="ignore"):
        batch = unsettled(errs, vals)
    assert batch.dtype == bool and batch.tolist() == want


def test_unsettled_reads_the_tolerances_at_call_time(monkeypatch):
    assert not unsettled(1e-11, 1.0)
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-12)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-12)
    assert unsettled(1e-11, 1.0)
    assert unsettled(np.array([1e-11, 1e-13]), np.array([1.0, 1.0])).tolist() \
        == [True, False]
