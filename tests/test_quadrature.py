"""Adaptive Gauss-Kronrod quadrature checked against closed forms and an
independent composite-Simpson oracle."""

import math

import pytest

from lpvembed import quadrature
from lpvembed.quadrature import QuadratureConvergenceError, QuadResult, integrate


def simpson(f, a, b, n=20000):
    # independent oracle; n must be even
    h = (b - a) / n
    s = f(a) + f(b)
    for i in range(1, n):
        s += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return s * h / 3.0


def test_constant_is_exact_in_one_panel():
    r = integrate(lambda t: 5.0, 0.0, 1.0)
    assert r.value == 5.0
    assert r.error == 0.0
    assert r.evaluations == 15
    assert r.subdivisions == 0


def test_cosine_against_closed_form():
    r = integrate(math.cos, 0.0, 1.0)
    assert r.value == pytest.approx(math.sin(1.0), abs=1e-13)


def test_cosine_against_simpson_oracle():
    r = integrate(math.cos, 0.0, 1.0)
    assert r.value == pytest.approx(simpson(math.cos, 0.0, 1.0), abs=1e-10)


def test_integral_that_vanishes():
    r = integrate(lambda t: math.cos(math.pi * t), 0.0, 1.0)
    assert abs(r.value) <= 1e-14


def test_oscillatory():
    f = lambda t: math.sin(40.0 * t)
    truth = (1.0 - math.cos(40.0)) / 40.0
    r = integrate(f, 0.0, 1.0)
    assert r.value == pytest.approx(truth, abs=1e-11)
    assert r.subdivisions > 0


def test_steep_logistic_against_simpson():
    f = lambda t: 1.0 / (1.0 + math.exp(-200.0 * (t - 0.5)))
    r = integrate(f, 0.0, 1.0)
    assert r.value == pytest.approx(simpson(f, 0.0, 1.0, n=200000), abs=1e-9)


def test_sqrt_kink():
    f = lambda t: math.sqrt(abs(t - 1.0 / 3.0))
    truth = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    r = integrate(f, 0.0, 1.0)
    assert r.value == pytest.approx(truth, abs=1e-8)


def test_general_interval():
    r = integrate(math.exp, -2.0, 3.0)
    assert r.value == pytest.approx(math.exp(3.0) - math.exp(-2.0), rel=1e-12)


def test_reversed_orientation():
    fwd = integrate(math.cos, 0.0, 1.0).value
    rev = integrate(math.cos, 1.0, 0.0).value
    assert rev == pytest.approx(-fwd, abs=1e-14)


def test_budget_exhaustion_raises(monkeypatch):
    f = lambda t: math.sqrt(abs(t - 1.0 / 3.0))
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-15)
    monkeypatch.setattr(quadrature, "REL_TOL", 0.0)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureConvergenceError) as ei:
        integrate(f, 0.0, 1.0)
    err = ei.value
    # the partial estimate is still carried for diagnostics
    truth = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert err.estimate == pytest.approx(truth, abs=1e-3)
    assert err.error > 0.0


def test_tolerances_are_respected(monkeypatch):
    # loose request -> fewer evaluations, tight request -> more
    f = lambda t: math.exp(math.sin(3.0 * t))
    runs = []
    for tol in (1e-4, 1e-12):
        monkeypatch.setattr(quadrature, "ABS_TOL", tol)
        monkeypatch.setattr(quadrature, "REL_TOL", tol)
        runs.append(integrate(f, 0.0, 2.0))
    loose, tight = runs
    assert loose.evaluations <= tight.evaluations
    truth = simpson(f, 0.0, 2.0, n=200000)
    assert tight.value == pytest.approx(truth, abs=1e-10)


def test_result_is_deterministic():
    f = lambda t: math.tanh(4.0 * t) / (1.0 + t * t)
    a = integrate(f, 0.0, 1.0)
    b = integrate(f, 0.0, 1.0)
    assert a.value == b.value and a.error == b.error


def test_rule01_is_the_rule_panel_applies_on_0_1():
    # the nodes _panel evaluates on [0, 1], in its order: each pair's lo
    # and hi node, the centre last
    seen = []
    quadrature._panel(lambda t: seen.append(t) or 0.0, 0.0, 1.0)
    half, pairs, (mid, wk_center, wg_center) = quadrature.RULE01
    assert seen == [t for lo, hi, _, _ in pairs for t in (lo, hi)] + [mid]
    assert half == 0.5
    assert [wg is not None for _, _, _, wg in pairs] == [i % 2 == 1
                                                         for i in range(7)]
    # the weights sum to 2 exactly, accumulated in _panel's order
    for column, centre in ((2, wk_center), (3, wg_center)):
        acc = 0.0
        for pair in pairs:
            if pair[column] is not None:
                acc += 2.0 * pair[column]
        assert acc + centre == 2.0


@pytest.mark.parametrize("f", [math.cos, lambda t: math.sin(40.0 * t),
                               lambda t: math.sqrt(abs(t - 1.0 / 3.0))],
                         ids=["settled", "subdivided", "kink"])
def test_a_first_panel_handed_in_is_the_one_integrate_computes(f):
    for a, b in ((0.0, 1.0), (-2.0, 3.0)):
        first = quadrature._panel(f, a, b)
        calls = []
        got = integrate(lambda t: calls.append(t) or f(t), a, b, first=first)
        assert got == integrate(f, a, b)
        # the panel is counted, not computed again
        assert len(calls) == got.evaluations - 15
