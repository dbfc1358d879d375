"""Properties checked on generated expression trees (hypothesis).

Each test is derandomized with a fixed number of examples, so a run
checks the same trees every time."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from lpvembed import quadrature
from lpvembed.expr import (
    Const, Var, add, compile_array, compile_scalar, div, mul, neg,
    substitute,
)
from lpvembed.factorize import LAMBDA, DeferredIntegral

NAMES = ("x", "y")
VALUES = (0.0, -0.0, 1e-300, 1e300, -1e300, 1.5, -2.5)
# each value against each, shifted, and against itself
POINTS = (list(zip(VALUES, VALUES[3:] + VALUES[:3]))
          + [(v, v) for v in VALUES])

OPERATORS = {"+": add, "-": lambda a, b: add(a, neg(b)), "*": mul, "/": div}

trees = st.recursive(
    st.one_of(st.sampled_from([Var(n) for n in NAMES]),
              st.floats(allow_nan=False, allow_infinity=False).map(Const)),
    lambda kids: st.builds(lambda op, a, b: OPERATORS[op](a, b),
                           st.sampled_from(sorted(OPERATORS)), kids, kids),
    max_leaves=10)


def folds_to_non_finite(e) -> bool:
    """Whether the constructors folded a constant of ``e`` to inf or NaN."""
    if isinstance(e, Const):
        return not math.isfinite(e.value)
    return any(folds_to_non_finite(c) for c in e.children())


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(trees)
def test_both_tables_agree_bit_for_bit_on_arithmetic(e):
    # where the scalar value is finite and numpy raises no flag, the two
    # tables run the same operations in the same order on IEEE doubles
    scalar, array = compile_scalar(e, NAMES), compile_array(e, NAMES)
    assert callable(array)
    for point in POINTS:
        try:
            want = scalar(*point)
        except ZeroDivisionError:
            want = None
        columns = [np.array([v]) for v in point]
        try:
            with np.errstate(all="raise", under="ignore"):
                got = float(np.ravel(array(*columns))[0])
        except FloatingPointError:
            continue
        except ZeroDivisionError:
            # only a folded 1/0, Python code in either table, raises it
            assert want is None, (e, point)
            continue
        if want is None:
            # numpy divides inf or NaN by zero without a flag; at finite
            # points either comes only from a folded constant, since any
            # other inf or NaN raises a flag first
            assert not math.isfinite(got) and folds_to_non_finite(e), \
                (e, point)
        elif math.isfinite(want):
            assert got.hex() == want.hex(), (e, point)


# finite points of x for the integrals below: large ones only overflow
AT_VALUES = (0.0, -0.0, 1e-300, 1.5, -2.5)


def integral_outcome(call):
    """The bits of what ``call`` returns, or the class and message of the
    quadrature or division error it raises."""
    try:
        return float(np.ravel(call())[0]).hex()
    except (ZeroDivisionError, quadrature.QuadratureConvergenceError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(trees)
def test_numpy_bisection_equals_at_bit_for_bit_on_arithmetic(e):
    # the same trees with y as the integration variable: where numpy
    # raises no flag, at_array's panel and bisection are at's floats, so
    # it settles, integrates or raises as at does.  A small budget keeps
    # the integrands that never converge cheap
    entry = DeferredIntegral(substitute(e, {"y": Var(LAMBDA)}))
    with mock.patch.object(quadrature, "MAX_SUBDIVISIONS", 20):
        for v in AT_VALUES:
            args = [v] * len(entry.arg_names)
            want = integral_outcome(lambda: entry.at(*args))
            try:
                with np.errstate(all="raise", under="ignore"):
                    got = integral_outcome(
                        lambda: entry.at_array(*(np.array([a])
                                                 for a in args)))
            except FloatingPointError:
                continue
            if isinstance(want, tuple) or math.isfinite(float.fromhex(want)):
                assert got == want, (e, v)
