"""Line-integral factorization: Jacobians, the integration-line substitution,
the closed-form rule table, quadrature fallback, and exactness of the
resulting matrix functions."""

import math
import random
import types
from functools import partial

import numpy as np
import pytest

from lpvembed.expr import (
    Add, Call, Const, Div, Mul, NonDifferentiableError, Pow, Var, add,
    compile_scalar, mul, neg, simplify, substitute, to_string,
)
import lpvembed
import lpvembed.factorize as fz
from lpvembed.factorize import (
    LAMBDA, Anchor, DeferredIntegral, FactorizedSystem, MatrixFunction,
    ModelError, NlssModel, _integrate_entry, factorize, input_names,
    integrate_analytic, jacobian, line_substitute, state_names,
)
from lpvembed.lpv import SchedulingMap, estimate_range
from lpvembed.modelfile import load_model_file
from lpvembed.models import BUNDLED, load_bundled
from lpvembed.parser import parse_expr
from lpvembed import quadrature
from lpvembed.quadrature import QuadResult, integrate
from lpvembed.synthetic import corpus_models, random_model

from conftest import bench_gen, network_doc, tree_eval

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
    J = jacobian([pe("x2", names), pe("sin(x1)", names)], names).entries
    assert [[to_string(e) for e in row] for row in J] == [
        ["0", "1"], ["cos(x1)", "0"]]


def test_jacobian_numeric_check():
    names = ("x1", "x2", "u1")
    fvec = [pe("x1*x2 + exp(-u1*x1)", names)]
    J = jacobian(fvec, names).entries
    env = {"x1": 0.7, "x2": -1.2, "u1": 0.4}
    h = 1e-6
    for j, n in enumerate(names):
        lo = dict(env); lo[n] -= h
        hi = dict(env); hi[n] += h
        fd = (tree_eval(fvec[0], hi) - tree_eval(fvec[0], lo)) / (2 * h)
        assert tree_eval(J[0][j], env) == pytest.approx(fd, rel=1e-6,
                                                       abs=1e-8)


# ------------------------------------------------------------ integration line

def test_line_substitute_origin():
    names = ("x1", "x2")
    e = pe("sin(x1) + x2", names)
    on_line = line_substitute(e, Anchor.origin(2, 0))
    assert to_string(on_line) == "sin(lam*x1) + lam*x2"
    env = {"x1": 1.3, "x2": -0.4, "lam": 0.6}
    assert tree_eval(on_line, env) == pytest.approx(
        math.sin(0.6 * 1.3) - 0.24)
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
        assert tree_eval(on_line, env) == pytest.approx(z1 * z2, rel=1e-14)
    # endpoints recover the anchor and the point
    assert tree_eval(on_line, {"x1": 2.5, "u1": -1.0, "lam": 0.0}) == 2.0
    assert tree_eval(on_line, {"x1": 2.5, "u1": -1.0, "lam": 1.0}) == -2.5


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
        assert tree_eval(res, env) == pytest.approx(expected, rel=1e-13), text


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
        sym = tree_eval(integrate_analytic(e), env)
        node = DeferredIntegral(e)
        num = node.at(*(env[a] for a in node.arg_names))
        assert sym == pytest.approx(num, rel=1e-10, abs=1e-12), text


def test_integrate_numeric_against_simpson():
    names = ("x", "lam")
    e = pe("1 - tanh(lam*x)^2", names)
    for x in (-3.0, -1.0, 0.5, 2.0):
        n = 20000
        h = 1.0 / n
        s = sum((4.0 if i % 2 else 2.0) * tree_eval(e, {"x": x, "lam": i * h})
                for i in range(1, n))
        s = (s + tree_eval(e, {"x": x, "lam": 0.0})
             + tree_eval(e, {"x": x, "lam": 1.0})) * h / 3.0
        num = DeferredIntegral(e).at(x)
        assert num == pytest.approx(s, abs=1e-11)
        # the integral equals tanh(x)/x
        assert num == pytest.approx(math.tanh(x) / x, abs=1e-11)


# --------------------------------------------------------- deferred integrals

def test_deferred_integral_eval_and_errors():
    names = ("x", "lam")
    node = DeferredIntegral(pe("1 - tanh(lam*x)^2", names))
    assert to_string(node) == "integral01(-tanh(lam*x)^2 + 1)"
    assert node.at(2.0) == pytest.approx(math.tanh(2.0) / 2.0, abs=1e-10)
    with pytest.raises(NonDifferentiableError):
        node.diff("x")


def test_deferred_integral_constant_integrand_is_exact():
    # a constant integrand must integrate with zero quadrature error
    node = DeferredIntegral(Const(130.9636363636364))
    assert node.at() == 130.9636363636364


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


def disk_at(x1):
    return {"x1": x1, "x2": 0.0, "u1": 0.0}


def test_disk_constant_matches_parameters(disk_doc, block_at):
    fs = factorize(disk_doc.model)
    A = block_at(fs.A_bar, disk_at(0.0))
    assert A[1, 0] == pytest.approx(MGL_OVER_J, abs=1e-9)


def test_disk_numeric_mode_defers_and_agrees(disk_doc, block_at):
    fs = factorize(disk_doc.model, mode="numeric")
    assert isinstance(fs.A_bar.entries[1][0], DeferredIntegral)
    # constant integrand at the anchor: quadrature is exact there
    A0 = block_at(fs.A_bar, disk_at(0.0))
    assert A0[1, 0] == 130.9636363636364
    for x1 in (-2.0, 0.3, 5.5):
        A = block_at(fs.A_bar, disk_at(x1))
        assert A[1, 0] == pytest.approx(
            MGL_OVER_J * math.sin(x1) / x1, abs=1e-9)


def test_disk_entries_continuous_through_origin(disk_doc, block_at):
    fs = factorize(disk_doc.model)
    base = block_at(fs.A_bar, disk_at(0.0))[1, 0]
    assert base == 130.9636363636364
    assert abs(block_at(fs.A_bar, disk_at(1e-3))[1, 0] - base) < 1e-4
    assert abs(block_at(fs.A_bar, disk_at(1e-6))[1, 0] - base) < 1e-9


# ------------------------------------------------- exactness of the identity

def reconstruction_residual(model, fs, rng, block_at, n=40):
    """Largest deviation of A_bar dx + B_bar du + V from f, and of the
    output side from h, with dx = x - x_bar and du = u - u_bar."""
    worst = 0.0
    for _ in range(n):
        x = [rng.uniform(-2.0, 2.0) for _ in range(model.nx)]
        u = [rng.uniform(-2.0, 2.0) for _ in range(model.nu)]
        b = dict(zip(model.var_names, x + u))
        dx = np.subtract(x, fs.anchor.x_bar)
        du = np.subtract(u, fs.anchor.u_bar)
        for M, N, offset, eqs in ((fs.A_bar, fs.B_bar, fs.V, model.f),
                                  (fs.C_bar, fs.D_bar, fs.W, model.h)):
            got = block_at(M, b) @ dx + block_at(N, b) @ du + offset
            ref = np.array([tree_eval(e, b) for e in eqs])
            worst = max(worst, np.max(np.abs(got - ref)))
    return worst


TEST_SYSTEMS = [
    (["x2", "sin(x1) - 0.5*x2 + u1"], ["x1"], 2, 1),
    (["x1*x2 - u1^2", "cos(x1)*u1 + x2"], ["x1 + x2", "tanh(x2)"], 2, 1),
    (["-x1 + exp(-0.4*x2)*u1", "x1^3 - x2 + sin(2*u1)"], ["x1*x2"], 2, 1),
    (["x1/(1 + u2^2) + u1 - 0.2*u2"], ["sqrt(1 + x1^2)"], 1, 2),
]


@pytest.mark.parametrize("f_texts,h_texts,nx,nu", TEST_SYSTEMS)
@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_identity_exact_at_origin_anchor(f_texts, h_texts, nx, nu, mode,
                                         block_at):
    model = make_model(f_texts, h_texts, nx, nu)
    fs = factorize(model, mode=mode)
    rng = random.Random(11)
    assert reconstruction_residual(model, fs, rng, block_at) < 1e-9


@pytest.mark.parametrize("f_texts,h_texts,nx,nu", TEST_SYSTEMS[:2])
def test_identity_exact_at_general_anchor(f_texts, h_texts, nx, nu,
                                          block_at):
    model = make_model(f_texts, h_texts, nx, nu)
    anchor = Anchor(tuple(0.3 * (i + 1) for i in range(nx)),
                    tuple(-0.5 for _ in range(nu)))
    fs = factorize(model, anchor=anchor)
    rng = random.Random(13)
    assert reconstruction_residual(model, fs, rng, block_at) < 1e-9
    # offsets are the model evaluated at the anchor
    b = anchor.bindings(nx, nu)
    assert fs.V == pytest.approx([tree_eval(e, b) for e in model.f],
                                 rel=1e-14)
    assert fs.W == pytest.approx([tree_eval(e, b) for e in model.h],
                                 rel=1e-14)


def test_modes_agree(disk_doc, block_at):
    model = disk_doc.model
    a = factorize(model, mode="analytic")
    n = factorize(model, mode="numeric")
    rng = random.Random(5)
    for _ in range(10):
        b = {"x1": rng.uniform(-6.0, 6.0), "x2": rng.uniform(-10.0, 10.0),
             "u1": rng.uniform(-5.0, 5.0)}
        for tag in ("A_bar", "B_bar", "C_bar", "D_bar"):
            Ma = block_at(getattr(a, tag), b)
            Mn = block_at(getattr(n, tag), b)
            assert np.max(np.abs(Ma - Mn)) < 1e-8, tag


def test_tanh_output_falls_back_to_quadrature(tanh_doc, block_at):
    fs = factorize(tanh_doc.model)
    assert len(fs.warnings) == 1
    assert fs.warnings[0].startswith("C(1,1): no closed form")
    assert isinstance(fs.C_bar.entries[0][0], DeferredIntegral)
    for x in (-3.0, 0.5, 2.0):
        got = block_at(fs.C_bar, {"x1": x, "u1": 0.0})[0, 0]
        assert got == pytest.approx(math.tanh(x) / x, abs=1e-10)
    assert block_at(fs.C_bar, {"x1": 0.0, "u1": 0.0})[0, 0] == 1.0


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


# Refusals come from one walk over each equation's nodes, not from
# differentiating it; the messages and their precedence are those of
# differentiating: the first node diff refuses wins over any non-finite
# constant, and of those the rightmost is named.
REFUSAL_CASES = [
    (lambda pe, d: pe("abs(x1) + 1e308*10"), "f1: 'abs' has no derivative rule"),
    (lambda pe, d: add(Const(math.inf), pe("abs(x1)")),
     "f1: 'abs' has no derivative rule"),
    (lambda pe, d: pe("x1 + 1e308*10"), "f1: constants fold to inf"),
    (lambda pe, d: pe("x1*1e308*10 - u1*1e308*10"),
     "f1: constants fold to -inf"),
    (lambda pe, d: add(d, Var("x1")),
     "f1: deferred integral entries cannot be differentiated"),
    (lambda pe, d: add(pe("abs(x1)"), d), "f1: 'abs' has no derivative rule"),
    (lambda pe, d: add(d, pe("abs(x1)")),
     "f1: deferred integral entries cannot be differentiated"),
]


@pytest.mark.parametrize("build,message", REFUSAL_CASES, ids=[
    "abs-then-inf", "inf-then-abs", "inf", "inf-then-minus-inf", "deferred",
    "abs-then-deferred", "deferred-then-abs"])
def test_model_refusals_name_the_first_node_diff_refuses(build, message):
    names = ("x1", "u1")
    d = DeferredIntegral(pe("lam*x1", names + (LAMBDA,)))
    with pytest.raises(ModelError) as ei:
        NlssModel(nx=1, nu=1, ny=1,
                  f=(build(lambda t: pe(t, names), d),), h=(pe("x1", names),))
    assert str(ei.value) == message


def test_model_validation_does_not_differentiate(monkeypatch):
    def refuse(self, var):
        raise AssertionError("diff called")
    for cls in (Const, Var, Add, Mul, Div, Pow, Call):
        monkeypatch.setattr(cls, "diff", refuse)
    chain_model(5)
    # an equation without variables is never differentiated, so a
    # deferred integral in it is no reason to refuse the model
    names = ("x1", "u1")
    constant = add(DeferredIntegral(pe("lam^2", names + (LAMBDA,))), 1.0)
    NlssModel(nx=1, nu=1, ny=1, f=(constant,), h=(pe("x1", names),))


def test_anchor_validation():
    with pytest.raises(ModelError):
        Anchor((float("nan"),), ())
    with pytest.raises(ModelError):
        Anchor((1.0,), ()).bindings(2, 0)


def test_factorize_rejects_unknown_mode(disk_doc):
    with pytest.raises(ModelError):
        factorize(disk_doc.model, mode="symbolic")


def test_package_attribute_factorize_is_the_module():
    # the package does not re-export the function under its module's name
    assert isinstance(fz, types.ModuleType)
    assert lpvembed.factorize is fz
    assert fz.factorize is factorize


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
        grid = [[_integrate_entry(reference_line_substitute(jac[i][j], anchor),
                                  mode, tag, i, j, warnings)
                 for j in range(len(wrt))]
                for i in range(len(fvec))]
        blocks[tag] = MatrixFunction(
            (len(fvec), len(wrt)),
            {(i, j): e for i, row in enumerate(grid) for j, e in enumerate(row)})
    V = np.array([tree_eval(e, at) for e in model.f])
    W = np.array([tree_eval(e, at) for e in model.h])
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

    monkeypatch.setattr(fz, "substitute", counting_substitute)
    factorize(model)
    assert calls["diff"] == pairs
    assert calls["map_entries"] <= sum(len(fp) ** 2 for fp in footprints)


def test_factor_matrices_hold_only_the_footprint(monkeypatch):
    """On a 30-pendulum chain, factorize integrates one entry per
    (equation, variable) footprint pair, 150 of the four blocks' 3,721
    entries, and each block keeps them in row-major order."""
    model = chain_model(30)
    pairs = sum(len(e.free_vars()) for e in model.f + model.h)
    calls = []

    def counting_integrate_entry(*args):
        calls.append(args[2:5])    # (tag, i, j)
        return _integrate_entry(*args)

    monkeypatch.setattr(fz, "_integrate_entry", counting_integrate_entry)
    fs = factorize(model)
    assert len(calls) == pairs == 150
    blocks = (fs.A_bar, fs.B_bar, fs.C_bar, fs.D_bar)
    assert sum(math.prod(b.shape) for b in blocks) == 3721
    assert calls == [(tag, i, j) for tag, b in zip("ABCD", blocks)
                     for i, j in b.nonzeros]
    for block in blocks:
        keys = list(block.nonzeros)
        assert keys == sorted(keys)
        assert all(0 <= i < block.shape[0] and 0 <= j < block.shape[1]
                   for i, j in keys)


# ------------------------------------------------ canonical form by construction
# No step of factorize normalizes a tree again: it relies on every tree
# that the parser and the constructors build being a fixed point of
# simplify.  This checks that on each stage's output over the bundled
# models, the corpus, random_model(0..59) and the benchmark's generated
# chain and network, in both modes, at the origin and a shifted anchor.

def canonical_sweep_models(tmp_path):
    models = [load_bundled(b).model for b in BUNDLED]
    models += corpus_models() + [random_model(k) for k in range(60)]
    case = bench_gen().chain(1, 0)
    path = tmp_path / f"{case.name}.nlss"
    path.write_text(case.text)
    models.append(load_model_file(str(path)).model)
    return models + [network_doc(0).model]


def assert_canonical(e):
    if isinstance(e, DeferredIntegral):
        e = e.integrand
    assert simplify(e) is e, to_string(e)


def test_stages_build_canonical_trees(tmp_path):
    for model in canonical_sweep_models(tmp_path):
        for e in model.f + model.h:
            assert_canonical(e)
            assert_canonical(pe(to_string(e), model.var_names))
        for anchor in (Anchor.origin(model.nx, model.nu),
                       seeded_anchor(model, 7)):
            for fvec in (model.f, model.h):
                for row in jacobian(fvec, model.var_names).entries:
                    for d in row:
                        assert_canonical(d)
                        on_line = line_substitute(d, anchor)
                        assert_canonical(on_line)
                        closed = integrate_analytic(on_line)
                        if closed is not None:
                            assert_canonical(closed)
            for mode in ("analytic", "numeric"):
                fs = factorize(model, anchor, mode=mode)
                for block in (fs.A_bar, fs.B_bar, fs.C_bar, fs.D_bar):
                    for row in block.entries:
                        for e in row:
                            assert_canonical(e)


# ------------------------------------------------------ the generated panel
# A deferred entry's one compiled function is its integrand's quadrature
# panel as straight-line code, which integrate calls for every panel.
# Over the network entries, the corpus and random_model(0..59) in both
# modes, that panel on [0, 1] must be quadrature.panel's, and the entry's
# value integrate's on quadrature.panel, bit for bit.

def same(a, b):
    """Bitwise equal floats: -0.0 is not 0.0, and NaN is NaN."""
    if a != a:
        return b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(call):
    """What ``call()`` returns, or the class, message and estimate of
    what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "estimate", None)


def same_outcome(a, b):
    """``same`` on floats and on the floats of tuples, ``==`` otherwise."""
    if isinstance(a, float):
        return isinstance(b, float) and same(a, b)
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(map(same_outcome, a, b)))
    return a == b


def reference(entry, vals):
    """The entry's integrand in lam at ``vals``, compiled on its own."""
    fn = compile_scalar(entry.integrand, (LAMBDA,) + entry.arg_names)
    return lambda l: fn(l, *vals)


def quad(f):
    """``integrate`` on [0, 1] on the panels of the integrand ``f``."""
    return integrate(partial(quadrature.panel, f), 0.0, 1.0)


def deferred_entries():
    models = corpus_models() + [random_model(k) for k in range(60)]
    models += [network_doc(index).model for index in range(4)]
    entries = {}
    for model in models:
        for mode in ("analytic", "numeric"):
            fs = factorize(model, mode=mode)
            for block in (fs.A_bar, fs.B_bar, fs.C_bar, fs.D_bar):
                for row in block.entries:
                    for e in row:
                        if isinstance(e, DeferredIntegral):
                            entries[e] = None
    return list(entries)


def test_generated_panel_and_value_match_quadrature_bitwise(monkeypatch):
    rng = random.Random(19)
    settled = subdivided = raised = 0
    # values near 1e200 overflow (OverflowError) or make integrands too
    # large to converge (QuadratureConvergenceError); a smaller budget
    # keeps the second kind cheap, on both sides alike
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 100)
    for entry in deferred_entries():
        for _ in range(12):
            vals = []
            for _ in entry.arg_names:
                r = rng.random()
                vals.append(0.0 if r < 0.1 else -0.0 if r < 0.2 else
                            rng.choice((-1.0, 1.0))
                            * rng.choice((0.1, 1.0, 3.0, 10.0, 30.0, 1e200))
                            * rng.random())
            f = reference(entry, vals)
            panel = outcome(lambda: entry._panel(*vals, 0.0, 1.0))
            assert same_outcome(panel, outcome(
                lambda: quadrature.panel(f, 0.0, 1.0))), (entry, vals)
            want = outcome(lambda: quad(f))
            got = outcome(lambda: entry.at(*vals))
            if isinstance(want, QuadResult):
                settled += want.subdivisions == 0
                subdivided += want.subdivisions > 0
                want = want.value
            else:
                raised += 1
            assert same_outcome(got, want), (entry, vals)
    # every path of integrate runs: the first panel accepted, subdivided,
    # and raised
    assert settled > 1000 and subdivided > 50 and raised > 0, (
        settled, subdivided, raised)


def test_an_integrand_that_raises_raises_as_quadrature_does():
    entry = DeferredIntegral(pe("ln(lam*x)", ("x", LAMBDA)))
    with pytest.raises(ValueError, match="ln of non-positive value"):
        entry._panel(-1.0, 0.0, 1.0)
    want = outcome(lambda: quad(reference(entry, [-1.0])))
    assert want[0] is ValueError
    assert same_outcome(outcome(lambda: entry.at(-1.0)), want)


def test_a_failing_part_free_of_lam_raises_first():
    # the panel computes the nodes free of lam once, before it places any
    # node; where one of them fails and so does a part in lam, the entry
    # raises the first, and the integrand on its own, node by node, the
    # part in lam, which it computes first
    entry = DeferredIntegral(pe("ln(lam - 2) + 1/x", ("x", LAMBDA)))
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        entry.at(0.0)
    with pytest.raises(ValueError, match="ln of non-positive value"):
        quad(reference(entry, [0.0]))
    # where only one part fails, both raise what it raises
    for text, x, error in (("ln(lam - 2) + 1/x", 1.0, ValueError),
                           ("ln(lam + 2) + 1/x", 0.0, ZeroDivisionError)):
        entry = DeferredIntegral(pe(text, ("x", LAMBDA)))
        want = outcome(lambda: quad(reference(entry, [x])))
        assert want[0] is error
        assert same_outcome(outcome(lambda: entry.at(x)), want)


def test_a_pairs_lo_node_raises_before_its_hi_node():
    # the shared sqrt is a local, computed for the hi node before the
    # pair's sum; at the first pair ln fails at the lo node and sqrt at
    # the hi node, and the panel raises ln's error, as quadrature does
    entry = DeferredIntegral(pe("ln(lam - 0.5)*x + sqrt(0.9 - lam)"
                                "*sqrt(0.9 - lam)", ("x", LAMBDA)))
    want = outcome(lambda: quad(reference(entry, [1.0])))
    assert want[:2] == (ValueError, "ln of non-positive value")
    assert same_outcome(outcome(lambda: entry.at(1.0)), want)


def test_an_exhausted_budget_carries_quadratures_estimate(monkeypatch):
    entry = DeferredIntegral(pe("sqrt(abs(lam - x))", ("x", LAMBDA)))
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-15)
    monkeypatch.setattr(quadrature, "REL_TOL", 0.0)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 2)
    x = 1.0 / 3.0
    want = outcome(lambda: quad(reference(entry, [x])))
    assert want[0] is quadrature.QuadratureConvergenceError
    assert same_outcome(outcome(lambda: entry.at(x)), want)


@pytest.mark.parametrize("text, want", [("lam*x*x", math.inf),
                                        ("x*x*lam - x*x", math.nan)],
                         ids=["inf", "nan"])
def test_a_first_panel_that_is_not_finite_is_quadratures(text, want):
    entry = DeferredIntegral(pe(text, ("x", LAMBDA)))
    f = reference(entry, [1e200])
    panel = entry._panel(1e200, 0.0, 1.0)
    assert not math.isfinite(panel[0])
    assert all(same(a, b)
               for a, b in zip(panel, quadrature.panel(f, 0.0, 1.0)))
    got = entry.at(1e200)
    assert same(got, quad(f).value) and same(got, want)


def test_tolerances_govern_a_deferred_entry_as_they_govern_integrate(
        monkeypatch):
    # the settle test is integrate's: a tolerance tight enough to reject
    # the first panel changes the entry's value exactly as integrate's.
    # at_array and the range scan settle a point by the same test: at
    # the loose tolerances the numpy panel settles every grid point, and
    # the scan calls at only at its two extrema; at tighter ones the
    # numpy bisection settles all but the last point (integrate bisects
    # once more at 1e-16 only there), and at the tightest every point
    # goes to at, and the batch is at's values bit for bit
    entry = DeferredIntegral(pe("tanh(lam*x)*x", ("x", LAMBDA)))
    sm = SchedulingMap((entry,), ("x",))
    x = np.linspace(0.5, 1.0, 5)
    calls = []
    at = DeferredIntegral.at
    monkeypatch.setattr(DeferredIntegral, "at",
                        lambda self, *v: calls.append(v) or at(self, *v))

    def batched(batch_calls):
        want = [quad(reference(entry, [v])).value for v in x]
        calls.clear()
        got = entry.at_array(x)
        assert len(calls) == batch_calls
        assert np.abs(got - want).max() <= 4 * np.spacing(max(want))
        calls.clear()
        rb = estimate_range(sm, {"x": (0.5, 1.0)}, grid_per_dim=x.size)
        assert len(calls) == batch_calls + 2
        assert rb.raw == ((want[0], want[-1]),)
        return got.tobytes() == np.array(want).tobytes()

    f = reference(entry, [1.0])
    loose = quad(f)
    assert loose.subdivisions == 0
    assert same(entry.at(1.0), loose.value)
    batched(0)
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-16)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-16)
    tight = quad(f)
    assert tight.subdivisions > 0 and tight.value != loose.value
    assert same(entry.at(1.0), tight.value)
    batched(1)
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-18)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-18)
    assert min(quad(reference(entry, [v])).subdivisions for v in x) > 1
    assert batched(x.size)


# a rational integrand: numpy and the scalar table run the same IEEE
# operations in the same order, so their panels agree bit for bit.  Near
# x1 = 0 it peaks at lam = 0.5, where integrate bisects many times
RATIONAL = "1/(x1*x1 + (lam - 0.5)*(lam - 0.5))"


def test_numpy_bisection_equals_at_bit_for_bit():
    entry = DeferredIntegral(pe(RATIONAL, ("x1", LAMBDA)))
    x = np.concatenate((np.logspace(-4, 1, 300), -np.logspace(-3, 0, 30)))
    subdivisions = {quad(reference(entry, [v])).subdivisions for v in x}
    assert {0, 1} <= subdivisions and max(subdivisions) >= 10
    want = np.array([entry.at(v) for v in x])
    assert entry.at_array(x).tobytes() == want.tobytes()
    # a 2-D array of points, as a block of grid points may come
    assert entry.at_array(x.reshape(30, 11)).tobytes() == want.tobytes()


@pytest.mark.parametrize("budget", [0, 1])
def test_numpy_bisection_keeps_to_the_subdivision_budget(monkeypatch,
                                                          budget):
    # with no bisection allowed, at raises wherever the first panel does
    # not settle, and so must at_array; with one, the numpy bisection
    # settles what integrate's one bisection settles, and at raises at
    # the rest
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", budget)
    entry = DeferredIntegral(pe(RATIONAL, ("x1", LAMBDA)))
    x = np.logspace(-3, 1, 60)
    kinds = set()
    for v in x:
        want = outcome(lambda: entry.at(v))
        got = outcome(lambda: float(entry.at_array(np.array([v]))[0]))
        assert same_outcome(got, want), v
        kinds.add(type(want))
    assert kinds == {float, tuple}
    with pytest.raises(quadrature.QuadratureConvergenceError) as ei:
        entry.at_array(x)
    first = next(v for v in x if isinstance(outcome(lambda: entry.at(v)),
                                            tuple))
    assert str(ei.value) == outcome(lambda: entry.at(first))[1]


def test_bisected_is_integrates_first_bisection():
    # on floats, bisected gives integrate's result where integrate
    # bisects exactly once
    entry = DeferredIntegral(pe(RATIONAL, ("x1", LAMBDA)))
    f = next(f for f in (reference(entry, [v])
                         for v in np.logspace(-3, 1, 60))
             if quad(f).subdivisions == 1)
    r = quad(f)
    panel = partial(quadrature.panel, f)
    k, _, err = panel(0.0, 1.0)
    total, total_err = quadrature.bisected(panel, 0.0, 1.0, k, err)
    assert same(total, r.value) and same(total_err, r.error)
