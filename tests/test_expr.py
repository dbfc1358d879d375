"""Expression trees: constructors, evaluation, derivatives, printing,
parsing, and compilation.  The library evaluates a tree only by compiling
it; ``tree_eval`` (conftest) walks the tree as the independent reference."""

import gc
import math
import random
import sys
import threading
import weakref

import mpmath
import numpy as np
import pytest

from lpvembed import expr
from lpvembed.expr import (
    FUNCTIONS, Add, Call, Const, EntryError, Expr, Mul,
    NonDifferentiableError, UnboundVariableError, Var,
    Div, Pow, add, call, compile_array, compile_panel, compile_scalar,
    compile_vector, cosm1c, div, dsinc, expm1c, mul, neg, pow_, simplify,
    sinc, substitute, to_string,
)
from lpvembed.parser import ParseError, parse_expr

from conftest import tree_eval

X, Y = Var("x"), Var("y")


def p(text):
    return parse_expr(text, variables=("x", "y", "z"))


def ev(e, env):
    """``e`` at ``env`` through the library's compiled code."""
    return compile_scalar(e, tuple(env))(*env.values())


# ---------------------------------------------------------------- constructors

def test_constant_folding():
    assert add(Const(2.0), Const(3.0)) == Const(5.0)
    assert mul(Const(2.0), Const(3.0), Const(0.5)) == Const(3.0)
    assert pow_(Const(2.0), Const(10.0)) == Const(1024.0)
    assert div(Const(1.0), Const(3.0)) == Const(1.0 / 3.0)
    assert call("sin", Const(0.0)) == Const(0.0)


def test_mul_by_zero_annihilates():
    assert mul(Const(0.0), call("exp", X)) == Const(0.0)


def test_identity_elements():
    assert add(X, Const(0.0)) == X
    assert mul(X, Const(1.0)) == X
    assert pow_(X, Const(1.0)) == X
    assert pow_(X, Const(0.0)) == Const(1.0)


def test_add_flattens_and_orders_constant_last():
    e = add(X, add(Y, Const(1.0)), Const(2.0))
    assert to_string(e) == "x + y + 3"


def test_mul_puts_constant_first():
    assert to_string(mul(X, Const(2.0))) == "2*x"


def test_structural_equality_and_hash():
    a = p("sin(x) + 2*y")
    b = p("sin(x) + 2*y")
    assert a == b and hash(a) == hash(b)
    assert a != p("sin(x) + 2*z")


# ------------------------------------------------------------------ evaluation

EVAL_CASES = [
    ("2*x + 3", {"x": 1.5}, 6.0),
    ("sin(x)*cos(y)", {"x": 0.7, "y": -0.2}, math.sin(0.7) * math.cos(-0.2)),
    ("exp(-x^2)", {"x": 1.2}, math.exp(-1.44)),
    ("x/(1 + y^2)", {"x": 3.0, "y": 2.0}, 0.6),
    ("ln(x) + sqrt(y)", {"x": math.e, "y": 4.0}, 3.0),
    ("tanh(x)", {"x": 0.9}, math.tanh(0.9)),
    ("x^2.5", {"x": 4.0}, 32.0),
    ("-x^2", {"x": 3.0}, -9.0),          # unary minus binds looser than ^
    ("2^3^2", {}, 512.0),                # ^ is right-associative
    ("x - y - 1", {"x": 10.0, "y": 3.0}, 6.0),
    ("x/y/2", {"x": 12.0, "y": 3.0}, 2.0),
    ("pi", {}, math.pi),
]


@pytest.mark.parametrize("text,env,expected", EVAL_CASES)
def test_eval(text, env, expected):
    assert ev(p(text), env) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        ev(p("x + y"), {"x": 1.0})


def test_eval_domain_errors():
    with pytest.raises(ValueError, match="ln of non-positive value"):
        ev(p("ln(x)"), {"x": -1.0})
    with pytest.raises(ValueError, match="sqrt of negative value"):
        ev(p("sqrt(x)"), {"x": -4.0})
    with pytest.raises(ZeroDivisionError):
        ev(p("x/y"), {"x": 1.0, "y": 0.0})


# ----------------------------------------------------- removable singularities

def test_singularity_helpers_at_zero():
    assert sinc(0.0) == 1.0
    assert cosm1c(0.0) == 0.0
    assert expm1c(0.0) == 1.0
    assert dsinc(0.0) == 0.0


def test_singularity_helpers_match_definitions():
    for a in (0.3, -1.7, 4.0, 12.0):
        assert sinc(a) == pytest.approx(math.sin(a) / a, rel=1e-15)
        assert cosm1c(a) == pytest.approx((math.cos(a) - 1.0) / a, rel=1e-12)
        assert expm1c(a) == pytest.approx(math.expm1(a) / a, rel=1e-15)
        assert dsinc(a) == pytest.approx(
            (a * math.cos(a) - math.sin(a)) / a ** 2, rel=1e-10)


def test_singularity_helpers_small_arguments():
    # Taylor references: naive formulas lose all digits here.
    a = 1e-5
    assert sinc(a) == pytest.approx(1.0 - a * a / 6.0, rel=1e-15)
    assert cosm1c(a) == pytest.approx(-a / 2.0, rel=1e-9)
    assert expm1c(a) == pytest.approx(1.0 + a / 2.0 + a * a / 6.0, rel=1e-11)
    assert dsinc(a) == pytest.approx(-a / 3.0 + a ** 3 / 30.0, rel=1e-9)


def test_cosm1c_does_not_underflow_below_its_tiny_branch():
    # -2*sin(a/2)**2/a underflows to -0.0 for 0 < |a| below about
    # 3e-154; there cosm1c is -a/2 in both tables, and 0.0 at either zero
    a = [2e-162, -2e-162, 5e-324, -5e-324, 1e-200]
    want = [-1e-162, 1e-162, -0.0, 0.0, -5e-201]
    assert [cosm1c(v) for v in a] == want
    with np.errstate(all="raise", under="ignore"):
        assert FUNCTIONS["cosm1c"].array(np.array(a)).tolist() == want
    for zero in (0.0, -0.0):
        for got in (cosm1c(zero), float(FUNCTIONS["cosm1c"].array(
                np.array([zero]))[0])):
            assert got == 0.0 and math.copysign(1.0, got) == 1.0


# cosm1c's rule, 0.5*sinc(a/2)^2 - sinc(a): two terms of magnitude at
# most 1 and their difference, each rounded, so a few ulp of 1 absolute
# (the worst measured is 1.1e-16, at a = 3.2e-6)
COSM1C_RULE_ABS = 4 * 2.0 ** -53


def test_cosm1c_rule_matches_mpmaths_derivative():
    rule = compile_scalar(call("cosm1c", Var("a")).diff("a"), ("a",))
    mags = [5e-324, 1e-310] + list(np.logspace(-300, 5, 306))
    worst = (0.0, 0.0)
    for v in [0.0, -0.0] + mags + [-v for v in mags]:
        if v == 0.0:
            ref = mpmath.mpf(-0.5)  # the limit of the quotient
        else:
            bits = 80 + 2 * max(0, -int(mpmath.mag(v)))
            with mpmath.workprec(bits):
                ref = mpmath.diff(lambda t: (mpmath.cos(t) - 1) / t,
                                  mpmath.mpf(v))
        err = float(abs(mpmath.mpf(rule(v)) - ref))
        worst = max(worst, (err, v))
    assert rule(0.0) == rule(-0.0) == -0.5
    assert worst[0] <= COSM1C_RULE_ABS, worst


# the removable-singularity family at exact precision: the definition,
# with working precision raised to cover the cancellation in cos(a) - 1
# and a*cos(a) - sin(a), which lose about 2*log2(1/|a|) bits
_MP_DEFINITIONS = {
    "sinc": (1, lambda a: mpmath.sin(a) / a),
    "cosm1c": (0, lambda a: (mpmath.cos(a) - 1) / a),
    "expm1c": (1, lambda a: mpmath.expm1(a) / a),
    "dsinc": (0, lambda a: (a * mpmath.cos(a) - mpmath.sin(a)) / (a * a)),
}
SINGULARITY_ULP = 4    # fixed before measuring


def _singularity_points():
    """±logspace(-300, 1), ±0, subnormals, and both sides of each switch
    point (cosm1c's tiny branch, dsinc's series and its old 1e-4)."""
    switches = [expr._COSM1C_TINY, expr._DSINC_SWITCH, 1e-4, 3e-154]
    near = [math.nextafter(s, d) for s in switches for d in (0.0, 2.0)]
    subnormals = [5e-324, 1e-323, 1e-320, 1e-310,
                  math.nextafter(2.2250738585072014e-308, 0.0)]
    mags = list(np.logspace(-300, 1, 602)) + switches + near + subnormals
    return [0.0, -0.0] + mags + [-v for v in mags]


@pytest.mark.parametrize("fn", sorted(_MP_DEFINITIONS))
def test_singularity_family_is_within_a_few_ulp_of_mpmath(fn):
    at_zero, definition = _MP_DEFINITIONS[fn]
    a = _singularity_points()
    with np.errstate(all="raise", under="ignore"):
        tables = {"scalar": [FUNCTIONS[fn].scalar(v) for v in a],
                  "numpy": FUNCTIONS[fn].array(np.array(a)).tolist()}
    worst = {}
    for n, v in enumerate(a):
        if v == 0.0:
            ref = mpmath.mpf(at_zero)
        else:
            bits = 80 + 2 * max(0, -int(mpmath.mag(v)))
            with mpmath.workprec(bits):
                ref = definition(mpmath.mpf(v))
        ulp = math.ulp(float(ref))
        for table, got in tables.items():
            err = float(abs(mpmath.mpf(got[n]) - ref) / ulp)
            if err > worst.get(table, (0.0,))[0]:
                worst[table] = (err, v)
    assert all(err <= SINGULARITY_ULP for err, _ in worst.values()), worst


# ----------------------------------------------------------------- derivatives

DIFF_CASES = [
    ("sin(x)", (0.4, 2.0, -1.3)),
    ("cos(2*x)", (0.4, 1.1)),
    ("tan(x)", (0.3, -0.8)),
    ("tanh(3*x)", (0.2, -0.5)),
    ("exp(-x^2)", (0.0, 0.9)),
    ("ln(x)", (0.5, 3.0)),
    ("sqrt(x)", (0.25, 2.0)),
    ("x^2.5", (0.7, 2.0)),
    ("2^x", (0.0, 1.5)),
    ("x^x", (0.7, 1.7)),
    ("x*sin(x) + x^3/(1 + x^2)", (0.6, -1.4)),
    ("sinc(x)", (0.0, 0.8, 3.0)),
    ("cosm1c(x)", (0.5, 2.0, -1.3)),
    ("expm1c(x)", (0.4, -0.9)),
    ("dsinc(x)", (0.6, 2.5)),
]


@pytest.mark.parametrize("text,points", DIFF_CASES)
def test_derivative_matches_finite_difference(text, points):
    e = p(text)
    d = e.diff("x")
    h = 1e-6
    for x0 in points:
        fd = (ev(e, {"x": x0 + h}) - ev(e, {"x": x0 - h})) / (2.0 * h)
        got = ev(d, {"x": x0})
        assert got == pytest.approx(fd, rel=5e-6, abs=5e-6), text


def test_derivative_of_other_variable_is_zero():
    assert p("sin(x)").diff("y") == Const(0.0)


def test_abs_has_no_derivative():
    with pytest.raises(NonDifferentiableError):
        p("abs(x)").diff("x")


# --------------------------------------------------------- printing / parsing

ROUNDTRIP_CASES = [
    "x + y + 3",
    "x - y",
    "-x",
    "-(x + y)",
    "2*x*y",
    "x/(y*z)",
    "x/y/z",
    "(x + 1)*(y - 2)",
    "x^2 + 2*x + 1",
    "x^(y + 1)",
    "2^3^x",
    "sin(x)*cos(y) - tanh(z)",
    "exp(-0.5*x^2)/sqrt(2*pi)",
    "x - (y - z)",
    "1/(1 + exp(-x))",
    "-3*x + 0.5",
]


@pytest.mark.parametrize("text", ROUNDTRIP_CASES)
def test_print_parse_roundtrip_is_identity(text):
    e = p(text)
    s = to_string(e)
    assert parse_expr(s, variables=("x", "y", "z")) == e


@pytest.mark.parametrize("text", ROUNDTRIP_CASES)
def test_roundtrip_preserves_value(text):
    e = p(text)
    e2 = parse_expr(to_string(e), variables=("x", "y", "z"))
    env = {"x": 0.37, "y": -1.21, "z": 2.05}
    assert ev(e2, env) == ev(e, env)


def test_precedence_rendering():
    assert to_string(p("2*(x + y)")) == "2*(x + y)"
    assert to_string(p("-x^2")) == "-x^2"
    assert to_string(p("(-x)^2")) == "(-x)^2"
    assert to_string(p("x - (y + 1)")) == "x - (y + 1)"


# ---------------------------------------------------------------- parse errors

@pytest.mark.parametrize("bad", [
    "x ++ y", "sin(", "2 3", "foo(x)", "x ^", "", "(x", "x + ", "1..2",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        p(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as ei:
        p("x + * y")
    assert ei.value.position == 4


def test_unknown_variable_rejected_when_vocabulary_given():
    with pytest.raises(ParseError):
        parse_expr("x + q", variables=("x",))


def test_a_run_of_terms_parses_into_one_sum(monkeypatch):
    # the parser collects the terms, so it builds no sum it drops at once
    from lpvembed import expr
    built = []

    def counted(cls, key, fields):
        built.append(cls)
        return intern(cls, key, fields)
    intern = expr._intern
    monkeypatch.setattr(expr, "_intern", counted)
    e = parse_expr("run_a1 + run_a2 + run_a3 + run_a4")
    assert built.count(Add) == 1
    assert e is add(*(Var(f"run_a{i}") for i in range(1, 5)))


def test_custom_constants():
    e = parse_expr("2*g", variables=(), constants={"g": 9.81})
    assert ev(e, {}) == pytest.approx(19.62)


# ----------------------------------------------------------- tree manipulation

def test_substitute():
    e = substitute(p("sin(x) + x*y"), {"x": p("y + 1")})
    env = {"y": 0.4}
    assert ev(e, env) == pytest.approx(math.sin(1.4) + 1.4 * 0.4)


def test_simplify_is_idempotent():
    rng = random.Random(7)
    for text in ROUNDTRIP_CASES:
        e = p(text)
        s1 = simplify(e)
        assert simplify(s1) == s1
        env = {"x": rng.uniform(0.1, 2), "y": rng.uniform(0.1, 2),
               "z": rng.uniform(0.1, 2)}
        assert ev(s1, env) == pytest.approx(ev(e, env), rel=1e-12)


def test_free_vars():
    assert p("sin(x)*y + 2").free_vars() == {"x", "y"}
    assert p("3.5").free_vars() == set()


# ----------------------------------------------------------------- compilation

def test_compiled_matches_tree_eval_bitwise():
    rng = random.Random(42)
    for text in ROUNDTRIP_CASES + ["sinc(x)", "cosm1c(x*y)", "expm1c(-x)"]:
        e = p(text)
        fn = compile_scalar(e, ("x", "y", "z"))
        for _ in range(5):
            env = {"x": rng.uniform(0.05, 2.0), "y": rng.uniform(0.05, 2.0),
                   "z": rng.uniform(0.05, 2.0)}
            assert fn(env["x"], env["y"], env["z"]) == tree_eval(e, env), text


def test_compiled_domain_error():
    fn = compile_scalar(p("ln(x)"), ("x",))
    with pytest.raises(ValueError):
        fn(-1.0)


@pytest.mark.parametrize("e", [Const(math.inf), Const(-math.inf),
                               add(X, Const(math.nan))],
                         ids=["inf", "-inf", "x+nan"])
def test_compiled_non_finite_constants_match_tree_eval(e):
    # repr prints these constants as the bare names inf and nan
    fn = compile_scalar(e, ("x",))
    got, want = fn(0.5), tree_eval(e, {"x": 0.5})
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_vector_with_a_deferred_entry_walks_no_tree():
    from lpvembed.factorize import DeferredIntegral
    d = DeferredIntegral(mul(Var("lam"), X, Y))
    exprs = (p("sin(x)*y + z^2"), d, add(X, mul(Y, d)), p("x/(y - z)"))
    args = (0.3, 0.7, 1.1)
    want = tuple(compile_scalar(e, ("x", "y", "z"))(*args) for e in exprs)
    # no node class can walk its tree: compiled code is the one evaluator
    for node in (Const, Var, Add, Mul, Div, Pow, Call):
        assert not hasattr(node, "eval"), node
    assert compile_vector(exprs, ("x", "y", "z"), "e")(*args) == want


def test_compiled_names_need_not_be_identifiers():
    a, b = Var("a.b"), Var("lambda")
    fn = compile_vector((add(a, b), mul(a, b)), ("a.b", "lambda"), "e")
    assert fn(2.0, 3.0) == (5.0, 6.0)
    assert compile_vector((), ("x",), "e")(1.0) == ()
    with pytest.raises(UnboundVariableError, match="'z'"):
        compile_scalar(add(X, Var("z")), ("x",))(1.0)


def test_a_tree_that_shares_no_node_compiles_with_no_local():
    # a local costs a store and a load: only a shared node pays for one
    names = ("lam", "x1")
    for text in ("0.7*(1 - tanh(1.3*lam*x1)^2)", "exp(-lam*x1^2)*x1",
                 "sin(lam*x1)/x1"):
        e = parse_expr(text, variables=names)
        assert compile_scalar(e, names).__code__.co_nlocals == len(names)
    shared = parse_expr("sin(x1)*sin(x1) + lam", variables=names)
    fn = compile_scalar(shared, names)
    assert fn.__code__.co_nlocals == len(names) + 1
    assert fn(0.5, 0.3) == tree_eval(shared, {"lam": 0.5, "x1": 0.3})


def test_a_shared_node_that_fails_first_names_the_first_failing_entry():
    # the second entry's local runs before the first entry's code
    inv = div(1.0, Y)
    fn = compile_vector((call("ln", X), mul(inv, inv)), ("x", "y"), "e")
    with pytest.raises(EntryError) as ei:
        fn(-1.0, 0.0)
    assert ei.value.label == "e1"
    assert str(ei.value.cause) == "ln of non-positive value"


def test_a_long_sum_compiles_in_its_own_order():
    # more terms than one inline sum holds: the runs keep left to right
    e = add(*(call("sin", mul(Const(k + 0.5), X)) for k in range(3000)))
    for x in (0.3, -1.7):
        assert compile_scalar(e, ("x",))(x) == tree_eval(e, {"x": x})


def test_entries_that_share_a_deferred_integral_run_it_once(monkeypatch):
    from lpvembed import factorize as fz
    d = fz.DeferredIntegral(call("tanh", mul(Var("lam"), X, Y)))
    exprs = (mul(2.0, d), add(X, d), d)
    args = (0.3, 0.7)
    want = tuple(compile_scalar(e, ("x", "y"))(*args) for e in exprs)
    calls = []

    def counted(*a, **k):
        calls.append(a)
        return integrate(*a, **k)
    integrate = fz.integrate
    monkeypatch.setattr(fz, "integrate", counted)
    fn = compile_vector(exprs, ("x", "y"), "e")
    assert fn(*args) == want
    assert len(calls) == 1
    fn(*args)
    assert len(calls) == 2


def test_a_dropped_vector_function_is_freed_at_once():
    # the function is not in the namespace that is its globals, so it
    # is in no reference cycle and needs no cyclic collection
    fn = compile_vector((p("sin(x)*y"), p("x/y")), ("x", "y"), "e")
    ref = weakref.ref(fn)
    gc.disable()
    try:
        del fn
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("fn", ["sinc", "cosm1c", "expm1c", "dsinc"])
def test_array_singularity_family_is_exact_at_0_and_the_dsinc_switch(fn):
    # 0, the smallest subnormals, both sides of cosm1c's tiny branch and
    # dsinc's series up to its switch at 1.5 (its old 1e-4 switch too),
    # with every flag but underflow raised: the branch an element does
    # not take must not be evaluated for it.  Above the switches the
    # tables call other sin and cos, which agree to a few ulp
    near = [math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0),
            5e-5, 2e-4, 5e-324, 1e-300, 1e-8, 2e-162,
            math.nextafter(expr._COSM1C_TINY, 0.0), expr._COSM1C_TINY,
            math.nextafter(expr._COSM1C_TINY, 1.0),
            math.nextafter(expr._DSINC_SWITCH, 0.0)]
    a = np.array([0.0, -0.0] + near + [-v for v in near])
    with np.errstate(all="raise", under="ignore"):
        got = FUNCTIONS[fn].array(a)
    want = np.array([FUNCTIONS[fn].scalar(float(v)) for v in a])
    assert got.tobytes() == want.tobytes()
    assert got[0] == {"sinc": 1.0, "cosm1c": 0.0, "expm1c": 1.0,
                      "dsinc": 0.0}[fn]


def test_array_table_evaluates_whole_arrays():
    e = p("x^2*sinc(y) + tanh(z)/(1 + x^2)")
    x, y, z = (np.linspace(-2.0, 2.0, 5) for _ in range(3))
    fn = compile_scalar(e, ("x", "y", "z"))
    want = [fn(*pt) for pt in zip(x, y, z)]
    assert compile_array(e, ("x", "y", "z"))(x, y, z) == \
        pytest.approx(want, rel=1e-15)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        compile_array(p("ln(x)"), ("x",))(np.array([1.0, -1.0]))


class Foreign(Expr):
    """A node the generator has no code for: it supplies ``arg_names``,
    ``at`` and ``at_array``."""

    __slots__ = ("arg_names",)

    def _build(self, *names):
        object.__setattr__(self, "arg_names", names)
        object.__setattr__(self, "_free", frozenset(names))

    def at(self, *values):
        return sum(values)

    at_array = at


def test_array_table_compiles_foreign_nodes_and_unbound_variables():
    from lpvembed.factorize import DeferredIntegral
    # a deferred integral is called through its own at_array, on its
    # arguments
    d = DeferredIntegral(mul(Var("lam"), X, Y))
    e = add(X, mul(Y, d))
    x = np.linspace(-2.0, 2.0, 7)
    y = np.linspace(3.0, -1.0, 7)
    want = np.array([tree_eval(e, {"x": a, "y": b}) for a, b in zip(x, y)])
    got = compile_array(e, ("x", "y"))(x, y)
    assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())
    foreign = add(X, Foreign("x"))
    assert compile_array(foreign, ("x",))(x).tolist() == (2 * x).tolist()
    assert compile_scalar(foreign, ("x",))(2.0) == 4.0
    # a variable that is not an argument, on its own or as a deferred
    # integral's, compiles in both tables and raises when called
    for tree, name in ((add(X, Var("z")), "z"), (add(X, d), "y")):
        for fn, arg in ((compile_scalar(tree, ("x",)), 1.0),
                        (compile_array(tree, ("x",)), x)):
            with pytest.raises(UnboundVariableError) as ei:
                fn(arg)
            assert str(ei.value) == f"unbound variable '{name}'"
    # nesting is no foreign node: a tree too deep to write inline compiles
    deep = X
    for _ in range(200):
        deep = call("sin", add(X, deep))
    x = np.linspace(-2.0, 2.0, 7)
    scalar = compile_scalar(deep, ("x",))
    assert compile_array(deep, ("x",))(x) == \
        pytest.approx([scalar(v) for v in x], rel=1e-15)
    assert scalar(0.5) == tree_eval(deep, {"x": 0.5})


def test_every_node_type_is_immutable():
    from lpvembed.factorize import DeferredIntegral
    nodes = [Const(1.0), X, add(X, Y), mul(X, Y), div(X, Y), pow_(X, Y),
             call("sin", X), DeferredIntegral(mul(Var("lam"), X))]
    for node in nodes:
        with pytest.raises(AttributeError, match="immutable"):
            node.value = 2.0
    # simplify passes foreign nodes through untouched
    assert simplify(nodes[-1]) is nodes[-1]


# ------------------------------------------------------------------- interning

def test_equal_trees_are_one_object_whichever_way_they_are_built():
    e = p("sin(x) + 2*y/z")
    assert e is p("sin(x)+2*y/z")
    assert e is add(call("sin", X), div(mul(2, Y), Var("z")))
    assert e is substitute(p("sin(y) + 2*x/z"), {"x": Y, "y": X})
    assert p("sin(x)^2").diff("x") is p("2*sin(x)*cos(x)")
    assert p("x*y").diff("x") is Y


def test_artifact_entries_load_as_the_nodes_converted(tmp_path):
    from lpvembed.factorize import factorize
    from lpvembed.lpv import extract_factor
    from lpvembed.modelfile import load_artifact, save_artifact
    from lpvembed.models import load_bundled

    model = load_bundled("unbalanced_disk").model
    for mode in ("analytic", "numeric"):  # numeric defers every entry
        m, sm = extract_factor(factorize(model, mode=mode))
        path = str(tmp_path / f"{mode}.json")
        save_artifact(path, m, sm)
        _, loaded, _ = load_artifact(path)
        assert sm.np and all(a is b for a, b in
                             zip(loaded.entries, sm.entries, strict=True))


def test_signed_zeros_keep_their_own_nodes():
    neg_zero = Const(-0.0)
    assert neg_zero is not Const(0.0) and neg_zero is Const(-0.0)
    assert math.copysign(1.0, compile_scalar(neg_zero, ())()) == -1.0
    assert math.copysign(1.0, compile_scalar(Const(0.0), ())()) == 1.0
    assert Const(math.nan) is not Const(math.nan)


def test_a_dropped_tree_leaves_the_table():
    from lpvembed import expr
    e = add(Var("dropped"), call("tanh", Var("dropped")))
    refs = [weakref.ref(n) for n in (e, e.terms[1], e.terms[0])]
    size = len(expr._NODES)
    del e
    gc.collect()
    assert all(r() is None for r in refs)
    assert (Var, "dropped") not in expr._NODES
    assert len(expr._NODES) <= size - len(refs)


def test_threads_building_the_same_trees_share_their_nodes():
    from lpvembed.synthetic import random_model
    models = [random_model(s) for s in range(20)]
    names = {n for m in models for n in m.var_names}
    texts = [to_string(e) for m in models for e in m.f + m.h]
    del models
    start = threading.Barrier(4)

    def build(results, k):
        start.wait()
        results[k] = [parse_expr(t, variables=names) for t in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            results = [None] * 4
            gc.collect()  # the trees are built anew, racing on every miss
            threads = [threading.Thread(target=build, args=(results, k))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for other in results[1:]:
                assert all(a is b for a, b in
                           zip(results[0], other, strict=True))
    finally:
        sys.setswitchinterval(interval)


def test_equal_deferred_integrals_compile_once(monkeypatch):
    from lpvembed import factorize as fz
    calls = []

    def counted(*args):
        calls.append(args)
        return compile_panel(*args)
    monkeypatch.setattr(fz, "compile_panel", counted)
    lam, v = Var("lam"), Var("v_once")
    first = fz.DeferredIntegral(call("tanh", mul(lam, v)))
    assert fz.DeferredIntegral(call("tanh", mul(lam, v))) is first
    assert len(calls) == 1
    # the operand order differs, so the integrand and the node do
    assert fz.DeferredIntegral(call("tanh", mul(v, lam))) is not first
    assert len(calls) == 2
    assert first.free_vars() == {"v_once"}
