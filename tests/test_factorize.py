"""Line-integral factorization: Jacobians, the integration-line substitution,
the closed-form rule table, quadrature fallback, and exactness of the
resulting matrix functions."""

import importlib
import math
import random

import numpy as np
import pytest

from lpvembed.expr import (
    Add, Call, Const, Div, EvalError, Mul, NonDifferentiableError, Pow,
    UnboundVariableError, Var, add, mul, neg, simplify, substitute, to_string,
)
from lpvembed.factorize import (
    LAMBDA, Anchor, DeferredIntegral, FactorizedSystem, MatrixFunction,
    ModelError, NlssModel, _integrate_entry, factorize, input_names,
    integrate_analytic, integrate_numeric, jacobian, line_substitute,
    state_names,
)
from lpvembed.models import BUNDLED, load_bundled
from lpvembed.parser import parse_expr
from lpvembed.quadrature import integrate
from lpvembed.synthetic import corpus_models, random_model

MGL_OVER_J = 0.07 * 9.8 * 0.042 / 2.2e-4


def pe(text, names):
    return parse_expr(text, variables=names)


def make_model(f_texts, h_texts, nx, nu, sample_time=0.0):
    names = tuple(f"x{i+1}" for i in range(nx)) + tuple(
        f"u{i+1}" for i in range(nu))
    return NlssModel(
        nx=nx, nu=nu, ny=len(h_texts),
        f=tuple(pe(t, names) for t in f_texts),
        h=tuple(pe(t, names) for t in h_texts),
        sample_time=sample_time)


# -------------------------------------------------------------------- jacobian

def test_jacobian_structure():
    names = ("x1", "x2")
    J = jacobian([pe("x2", names), pe("sin(x1)", names)], names)
    assert [[to_string(e) for e in row] for row in J] == [
        ["0", "1"], ["cos(x1)", "0"]]


def test_jacobian_numeric_check():
    names = ("x1", "x2", "u1")
    fvec = [pe("x1*x2 + exp(-u1*x1)", names)]
    J = jacobian(fvec, names)
    env = {"x1": 0.7, "x2": -1.2, "u1": 0.4}
    h = 1e-6
    for j, n in enumerate(names):
        lo = dict(env); lo[n] -= h
        hi = dict(env); hi[n] += h
        fd = (fvec[0].eval(hi) - fvec[0].eval(lo)) / (2 * h)
        assert J[0][j].eval(env) == pytest.approx(fd, rel=1e-6, abs=1e-8)


# ------------------------------------------------------------ integration line

def test_line_substitute_origin():
    names = ("x1", "x2")
    e = pe("sin(x1) + x2", names)
    on_line = line_substitute(e, Anchor.origin(2, 0))
    assert to_string(on_line) == "sin(lam*x1) + lam*x2"
    env = {"x1": 1.3, "x2": -0.4, "lam": 0.6}
    assert on_line.eval(env) == pytest.approx(math.sin(0.6 * 1.3) - 0.24)
    # names that are not variables of the anchor stay as they are
    e = pe("x3*y + u1", ("x3", "y", "u1"))
    assert to_string(line_substitute(e, Anchor.origin(2, 0))) == "x3*y + u1"


def test_line_substitute_general_anchor():
    names = ("x1", "u1")
    e = pe("x1*u1", names)
    on_line = line_substitute(e, Anchor((1.0,), (2.0,)))
    for lam in (0.0, 0.3, 1.0):
        env = {"x1": 2.5, "u1": -1.0, "lam": lam}
        z1 = 1.0 + lam * (2.5 - 1.0)
        z2 = 2.0 + lam * (-1.0 - 2.0)
        assert on_line.eval(env) == pytest.approx(z1 * z2, rel=1e-14)
    # endpoints recover the anchor and the point
    assert on_line.eval({"x1": 2.5, "u1": -1.0, "lam": 0.0}) == 2.0
    assert on_line.eval({"x1": 2.5, "u1": -1.0, "lam": 1.0}) == -2.5


def test_line_substitute_rejects_reserved_name():
    with pytest.raises(ModelError):
        line_substitute(Var("lam"), Anchor.origin(1, 0))


# -------------------------------------------------------------- rule table

def closed_form_cases():
    # (integrand text, value of the exact lam-integral at the sample env)
    env = {"x": 0.7, "y": -1.3, "u": 0.4}
    x, y, u = env["x"], env["y"], env["u"]
    return env, [
        ("lam", 0.5),
        ("lam^2", 1.0 / 3.0),
        ("lam*x", x / 2.0),
        ("lam^2*x + lam*y + 1", x / 3.0 + y / 2.0 + 1.0),
        ("(1 + lam*x)*(lam*u)", u / 2.0 + x * u / 3.0),
        ("sin(lam*x)", (1.0 - math.cos(x)) / x),
        ("cos(lam*x)", math.sin(x) / x),
        ("exp(lam*x)", math.expm1(x) / x),
        ("x*cos(lam*x)", math.sin(x)),
        ("sin(lam*x)/x", (1.0 - math.cos(x)) / x ** 2),
        ("lam^2.5", 1.0 / 3.5),
        ("lam^32", 1.0 / 33.0),
        ("lam^33", 1.0 / 34.0),
        ("cos(lam*(x - y))", math.sin(x - y) / (x - y)),
        ("y*sin(lam*x) + 2", y * (1.0 - math.cos(x)) / x + 2.0),
    ]


def test_rule_table_closed_forms():
    env, cases = closed_form_cases()
    names = ("x", "y", "u", "lam")
    for text, expected in cases:
        res = integrate_analytic(pe(text, names))
        assert res is not None, text
        assert "lam" not in res.free_vars(), text
        assert res.eval(env) == pytest.approx(expected, rel=1e-13), text


def test_rule_table_trig_map_to_singularity_primitives():
    names = ("x", "lam")
    assert to_string(integrate_analytic(pe("cos(lam*x)", names))) == "sinc(x)"
    assert to_string(integrate_analytic(pe("sin(lam*x)", names))) == "-cosm1c(x)"
    assert to_string(integrate_analytic(pe("exp(lam*x)", names))) == "expm1c(x)"


@pytest.mark.parametrize("text", [
    "tanh(lam*x)",
    "sin(0.5 + lam*x)",           # affine argument with nonzero offset
    "cos(lam*x)^2",
    "sin(lam*x)*cos(lam*y)",
    "1/(1 + lam*x)",
    "lam^x",
    "exp(-(lam*x)^2)",
])
def test_rule_table_declines_hard_cases(text):
    assert integrate_analytic(pe(text, ("x", "y", "lam"))) is None


def test_rule_table_agrees_with_quadrature():
    env, cases = closed_form_cases()
    names = ("x", "y", "u", "lam")
    for text, _ in cases:
        e = pe(text, names)
        sym = integrate_analytic(e).eval(env)
        num = integrate_numeric(e, env)
        assert sym == pytest.approx(num, rel=1e-10, abs=1e-12), text


def test_integrate_numeric_against_simpson():
    names = ("x", "lam")
    e = pe("1 - tanh(lam*x)^2", names)
    for x in (-3.0, -1.0, 0.5, 2.0):
        n = 20000
        h = 1.0 / n
        s = sum((4.0 if i % 2 else 2.0) * e.eval({"x": x, "lam": i * h})
                for i in range(1, n))
        s = (s + e.eval({"x": x, "lam": 0.0}) + e.eval({"x": x, "lam": 1.0})) * h / 3.0
        assert integrate_numeric(e, {"x": x}) == pytest.approx(s, abs=1e-11)
        # the integral equals tanh(x)/x
        assert integrate_numeric(e, {"x": x}) == pytest.approx(
            math.tanh(x) / x, abs=1e-11)


# --------------------------------------------------------- deferred integrals

def test_matrix_function_errors_name_the_entry():
    names = ("x1", "x2", "u1")

    def pe(text):
        return parse_expr(text, variables=names + (LAMBDA,))
    mf = MatrixFunction(((pe("1"), pe("x1")), (pe("ln(x1)"), pe("x2"))),
                        "A", names)
    with pytest.raises(EvalError, match=r"^A\(2,1\): ln of non-positive"):
        mf.evaluate(np.array([-1.0, 0.0]), np.array([0.0]))
    # the failure inside a deferred entry's quadrature is attributed too
    mf = MatrixFunction(((pe("x2"), DeferredIntegral(pe("1/(x1 - lam)"))),),
                        "C", names)
    with pytest.raises(EvalError, match=r"^C\(1,2\): float division by zero"):
        mf.evaluate([0.5, 1.0], [0.0])
    assert mf.evaluate([2.0, 1.0], [0.0])[0, 0] == 1.0


def test_deferred_integral_eval_and_errors():
    names = ("x", "lam")
    node = DeferredIntegral(pe("1 - tanh(lam*x)^2", names))
    assert to_string(node) == "integral01(-tanh(lam*x)^2 + 1)"
    assert node.eval({"x": 2.0}) == pytest.approx(math.tanh(2.0) / 2.0,
                                                  abs=1e-10)
    with pytest.raises(UnboundVariableError):
        node.eval({})
    with pytest.raises(NonDifferentiableError):
        node.diff("x")


def test_deferred_integral_constant_integrand_is_exact():
    # a constant integrand must integrate with zero quadrature error
    node = DeferredIntegral(Const(130.9636363636364))
    assert node.eval({}) == 130.9636363636364


# ----------------------------------------------------------- disk benchmark

def test_disk_factorization_structure(disk_doc):
    fs = factorize(disk_doc.model)
    assert fs.warnings == ()
    assert fs.A_bar.entry_strings() == [
        ["0", "1"],
        ["130.9636363636364*sinc(x1)", "-1.6747613465081226"]]
    assert fs.B_bar.entry_strings() == [["0"], ["25.64059621503936"]]
    assert fs.C_bar.entry_strings() == [["1", "0"]]
    assert fs.D_bar.entry_strings() == [["0"]]
    assert np.array_equal(fs.V, np.zeros(2))
    assert np.array_equal(fs.W, np.zeros(1))


def test_disk_constant_matches_parameters(disk_doc):
    fs = factorize(disk_doc.model)
    A = fs.A_bar.evaluate([0.0, 0.0], [0.0])
    assert A[1, 0] == pytest.approx(MGL_OVER_J, abs=1e-9)


def test_disk_numeric_mode_defers_and_agrees(disk_doc):
    fs = factorize(disk_doc.model, mode="numeric")
    assert isinstance(fs.A_bar.entries[1][0], DeferredIntegral)
    # constant integrand at the anchor: quadrature is exact there
    A0 = fs.A_bar.evaluate([0.0, 0.0], [0.0])
    assert A0[1, 0] == 130.9636363636364
    for x1 in (-2.0, 0.3, 5.5):
        A = fs.A_bar.evaluate([x1, 0.0], [0.0])
        assert A[1, 0] == pytest.approx(
            MGL_OVER_J * math.sin(x1) / x1, abs=1e-9)


def test_disk_entries_continuous_through_origin(disk_doc):
    fs = factorize(disk_doc.model)
    base = fs.A_bar.evaluate([0.0, 0.0], [0.0])[1, 0]
    assert base == 130.9636363636364
    assert abs(fs.A_bar.evaluate([1e-3, 0.0], [0.0])[1, 0] - base) < 1e-4
    assert abs(fs.A_bar.evaluate([1e-6, 0.0], [0.0])[1, 0] - base) < 1e-9


# ------------------------------------------------- exactness of the identity

def reconstruction_residual(model, fs, rng, n=40):
    worst = 0.0
    for _ in range(n):
        x = [rng.uniform(-2.0, 2.0) for _ in range(model.nx)]
        u = [rng.uniform(-2.0, 2.0) for _ in range(model.nu)]
        got_f = fs.reconstruct_f(x, u)
        got_h = fs.reconstruct_h(x, u)
        ref_f = model.eval_f(x, u)
        ref_h = model.eval_h(x, u)
        worst = max(worst, np.max(np.abs(got_f - ref_f)),
                    np.max(np.abs(got_h - ref_h)))
    return worst


TEST_SYSTEMS = [
    (["x2", "sin(x1) - 0.5*x2 + u1"], ["x1"], 2, 1),
    (["x1*x2 - u1^2", "cos(x1)*u1 + x2"], ["x1 + x2", "tanh(x2)"], 2, 1),
    (["-x1 + exp(-0.4*x2)*u1", "x1^3 - x2 + sin(2*u1)"], ["x1*x2"], 2, 1),
    (["x1/(1 + u2^2) + u1 - 0.2*u2"], ["sqrt(1 + x1^2)"], 1, 2),
]


@pytest.mark.parametrize("f_texts,h_texts,nx,nu", TEST_SYSTEMS)
@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_identity_exact_at_origin_anchor(f_texts, h_texts, nx, nu, mode):
    model = make_model(f_texts, h_texts, nx, nu)
    fs = factorize(model, mode=mode)
    rng = random.Random(11)
    assert reconstruction_residual(model, fs, rng) < 1e-9


@pytest.mark.parametrize("f_texts,h_texts,nx,nu", TEST_SYSTEMS[:2])
def test_identity_exact_at_general_anchor(f_texts, h_texts, nx, nu):
    model = make_model(f_texts, h_texts, nx, nu)
    anchor = Anchor(tuple(0.3 * (i + 1) for i in range(nx)),
                    tuple(-0.5 for _ in range(nu)))
    fs = factorize(model, anchor=anchor)
    rng = random.Random(13)
    assert reconstruction_residual(model, fs, rng) < 1e-9
    # offsets are the model evaluated at the anchor
    b = anchor.bindings(nx, nu)
    assert fs.V == pytest.approx([e.eval(b) for e in model.f], rel=1e-14)
    assert fs.W == pytest.approx([e.eval(b) for e in model.h], rel=1e-14)


def test_modes_agree(disk_doc):
    model = disk_doc.model
    a = factorize(model, mode="analytic")
    n = factorize(model, mode="numeric")
    rng = random.Random(5)
    for _ in range(10):
        x = [rng.uniform(-6.0, 6.0), rng.uniform(-10.0, 10.0)]
        u = [rng.uniform(-5.0, 5.0)]
        for tag in ("A_bar", "B_bar", "C_bar", "D_bar"):
            Ma = getattr(a, tag).evaluate(x, u)
            Mn = getattr(n, tag).evaluate(x, u)
            assert np.max(np.abs(Ma - Mn)) < 1e-8, tag


def test_tanh_output_falls_back_to_quadrature(tanh_doc):
    fs = factorize(tanh_doc.model)
    assert len(fs.warnings) == 1
    assert fs.warnings[0].startswith("C(1,1): no closed form")
    assert isinstance(fs.C_bar.entries[0][0], DeferredIntegral)
    for x in (-3.0, 0.5, 2.0):
        got = fs.C_bar.evaluate([x], [0.0])[0, 0]
        assert got == pytest.approx(math.tanh(x) / x, abs=1e-10)
    assert fs.C_bar.evaluate([0.0], [0.0])[0, 0] == 1.0


# ------------------------------------------------------------ model validation

def test_model_validation_errors():
    names = ("x1", "u1")
    good_f = (pe("-x1 + u1", names),)
    good_h = (pe("x1", names),)
    with pytest.raises(ModelError):
        NlssModel(nx=2, nu=1, ny=1, f=good_f, h=good_h)     # wrong eq count
    with pytest.raises(ModelError):
        NlssModel(nx=1, nu=1, ny=1, f=(pe("x1 + x2", ("x1", "x2")),),
                  h=good_h)                                  # undeclared var
    with pytest.raises(ModelError):
        NlssModel(nx=1, nu=1, ny=1, f=good_f, h=good_h, sample_time=-0.5)
    with pytest.raises(ModelError, match="finite"):
        NlssModel(nx=1, nu=1, ny=1, f=good_f, h=good_h,
                  sample_time=float("inf"))
    with pytest.raises(ModelError):
        NlssModel(nx=1, nu=1, ny=1, f=(pe("abs(x1)", names),), h=good_h)


def test_anchor_validation():
    with pytest.raises(ModelError):
        Anchor((float("nan"),), ())
    with pytest.raises(ModelError):
        Anchor((1.0,), ()).bindings(2, 0)


def test_factorize_rejects_unknown_mode(disk_doc):
    with pytest.raises(ModelError):
        factorize(disk_doc.model, mode="symbolic")


# ------------------------------------- footprint factorization against a dense oracle
# The reference below differentiates every equation by every variable
# and maps all nx + nu variables onto the line for every entry, zeros
# included.  factorize does work only inside each equation's footprint;
# the two must agree to the byte.

def reference_jacobian(fvec, wrt):
    return [[simplify(e.diff(v)) for v in wrt] for e in fvec]


def reference_line_substitute(e, anchor):
    if LAMBDA in e.free_vars():
        raise ModelError(f"'{LAMBDA}' is reserved for the integration variable")
    lam = Var(LAMBDA)
    mapping = {}
    names = state_names(len(anchor.x_bar)) + input_names(len(anchor.u_bar))
    for name, ref in zip(names, anchor.x_bar + anchor.u_bar):
        v = Var(name)
        if ref == 0.0:
            mapping[name] = mul(lam, v)
        else:
            c = Const(ref)
            mapping[name] = add(c, mul(lam, add(v, neg(c))))
    return substitute(e, mapping)


def reference_factorize(model, anchor, mode):
    at = anchor.bindings(model.nx, model.nu)
    warnings = []
    blocks = {}
    for tag, fvec, wrt in (("A", model.f, model.x_names),
                           ("B", model.f, model.u_names),
                           ("C", model.h, model.x_names),
                           ("D", model.h, model.u_names)):
        jac = reference_jacobian(fvec, wrt)
        rows = tuple(
            tuple(_integrate_entry(reference_line_substitute(jac[i][j], anchor),
                                   mode, tag, i, j, warnings)
                  for j in range(len(wrt)))
            for i in range(len(fvec)))
        blocks[tag] = MatrixFunction(rows, tag, model.var_names)
    V = np.array([e.eval(at) for e in model.f])
    W = np.array([e.eval(at) for e in model.h])
    return FactorizedSystem(model, anchor, blocks["A"], blocks["B"],
                            blocks["C"], blocks["D"], V, W, tuple(warnings))


def chain_model(n):
    """``n`` coupled pendulums: sin self terms, sin(x_j - x_i) couplings."""
    nx = 2 * n
    names = state_names(nx) + ("u1",)
    f = []
    for i in range(n):
        th, om = f"x{2 * i + 1}", f"x{2 * i + 2}"
        rhs = f"-{4.0 + 0.01 * i!r}*sin({th}) - 0.5*{om}"
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                rhs += f" + {1.0 + 0.001 * (i + j)!r}*sin(x{2 * j + 1} - {th})"
        if i == 0:
            rhs += " + u1"
        f += [pe(om, names), pe(rhs, names)]
    return NlssModel(nx=nx, nu=1, ny=1, f=tuple(f),
                     h=(pe(f"x{nx - 1}", names),), name=f"chain{n}")


def oracle_model(source):
    kind, _, key = source.partition(":")
    if kind == "bundled":
        return load_bundled(key).model
    if kind == "corpus":
        return corpus_models()[int(key)]
    return random_model(int(key))


def signature(fs):
    return ([getattr(fs, t).entry_strings()
             for t in ("A_bar", "B_bar", "C_bar", "D_bar")],
            fs.warnings, fs.V.tobytes(), fs.W.tobytes())


def seeded_anchor(model, seed):
    rng = random.Random(seed)
    return Anchor(tuple(round(rng.uniform(-1.0, 1.0), 3) for _ in range(model.nx)),
                  tuple(round(rng.uniform(-1.0, 1.0), 3) for _ in range(model.nu)))


@pytest.mark.parametrize("source",
                         [f"bundled:{b}" for b in BUNDLED]
                         + [f"corpus:{k}" for k in range(3)]
                         + [f"random:{k}" for k in range(30)])
def test_factorize_matches_dense_oracle(source):
    model = oracle_model(source)
    anchors = (Anchor.origin(model.nx, model.nu), seeded_anchor(model, 7))
    for anchor in anchors:
        for mode in ("analytic", "numeric"):
            assert (signature(factorize(model, anchor, mode=mode))
                    == signature(reference_factorize(model, anchor, mode))), (
                        anchor, mode)


def test_factorize_matches_dense_oracle_on_chain():
    model = chain_model(30)
    anchor = Anchor.origin(model.nx, model.nu)
    assert (signature(factorize(model, anchor))
            == signature(reference_factorize(model, anchor, "analytic")))


def test_factorize_work_follows_the_footprint(monkeypatch):
    """Counts, not times: on an 80-pendulum chain, factorize differentiates
    each equation once per variable in its footprint, and the line maps
    hold no more entries than the footprints allow."""
    model = chain_model(80)
    footprints = [e.free_vars() for e in model.f + model.h]
    pairs = sum(len(fp) for fp in footprints)

    calls = {"diff": 0, "depth": 0, "map_entries": 0}

    def counted(orig):
        def diff(self, var):
            if calls["depth"] == 0:
                calls["diff"] += 1
            calls["depth"] += 1
            try:
                return orig(self, var)
            finally:
                calls["depth"] -= 1
        return diff

    for cls in (Const, Var, Add, Mul, Div, Pow, Call):
        monkeypatch.setattr(cls, "diff", counted(cls.diff))

    def counting_substitute(e, mapping):
        calls["map_entries"] += len(mapping)
        return substitute(e, mapping)

    # the package re-exports the function factorize under the module's name
    monkeypatch.setattr(importlib.import_module("lpvembed.factorize"),
                        "substitute", counting_substitute)
    factorize(model)
    assert calls["diff"] == pairs
    assert calls["map_entries"] <= sum(len(fp) ** 2 for fp in footprints)
