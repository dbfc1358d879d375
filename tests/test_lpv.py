"""Affine scheduling extraction, range estimation, and embedding
verification."""

import math
import random
import warnings
from collections import Counter
from functools import partial
from itertools import chain, product

import numpy as np
import pytest

from lpvembed import lpv
from lpvembed.expr import (
    Add, Const, EntryError, EvalError, Var, add, call, call_floats,
    compile_array, compile_scalar, compile_vector, pow_,
)
from lpvembed.factorize import (
    Anchor, DeferredIntegral, ModelError, NlssModel, factorize, state_names,
)
from lpvembed.lpv import (
    LpvssModel, RangeBox, RangeGridError, SchedulingMap,
    _split_term, default_box, estimate_range, extract_element, extract_factor,
    verify_embedding,
)
from lpvembed.models import BUNDLED, corpus, load_bundled
from lpvembed.parser import parse_expr
from lpvembed.quadrature import bisected, unsettled
from lpvembed.synthetic import corpus_models, random_model

from conftest import network_doc, reference_verify, tree_eval


def pe(text, names):
    return parse_expr(text, variables=names)


def make_model(f_texts, h_texts, nx, nu):
    names = tuple(f"x{i+1}" for i in range(nx)) + tuple(
        f"u{i+1}" for i in range(nu))
    return NlssModel(nx=nx, nu=nu, ny=len(h_texts),
                     f=tuple(pe(t, names) for t in f_texts),
                     h=tuple(pe(t, names) for t in h_texts))


# ------------------------------------------------------------------ extraction

def test_disk_factor_extraction(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    assert sm.np == 1
    assert sm.entry_strings() == ["sinc(x1)"]
    assert m.A[0].tolist() == [[0.0, 1.0], [0.0, -1.6747613465081226]]
    assert m.A[1].tolist() == [[0.0, 0.0], [130.9636363636364, 0.0]]
    assert m.B[0].tolist() == [[0.0], [25.64059621503936]]
    assert m.B[1].tolist() == [[0.0], [0.0]]
    assert m.C[0].tolist() == [[1.0, 0.0]]
    assert m.D[0].tolist() == [[0.0]]


def test_disk_element_extraction(disk_doc):
    m, sm = extract_element(factorize(disk_doc.model))
    assert sm.np == 1
    assert sm.entry_strings() == ["130.9636363636364*sinc(x1)"]
    assert m.A[1].tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_factor_extraction_splits_terms():
    # f1 = 2 sin(x1) + 3 x2 u1 + x2 exercises coefficient splitting:
    #   A(1,1) = 2 sinc(x1), A(1,2) = 1.5 u1 + 1, B(1,1) = 1.5 x2
    model = make_model(["2*sin(x1) + 3*x2*u1 + x2", "-x2"], ["x1"], 2, 1)
    m, sm = extract_factor(factorize(model))
    assert sm.entry_strings() == ["sinc(x1)", "u1", "x2"]
    assert m.A[1][0, 0] == 2.0
    assert m.A[2][0, 1] == 1.5
    assert m.A[0][0, 1] == 1.0
    assert m.B[3][0, 0] == 1.5
    assert m.A[0][1, 1] == -1.0


def test_element_extraction_keeps_whole_entries():
    model = make_model(["2*sin(x1) + 3*x2*u1 + x2", "-x2"], ["x1"], 2, 1)
    m, sm = extract_element(factorize(model))
    assert sm.entry_strings() == ["2*sinc(x1)", "1.5*u1 + 1", "1.5*x2"]
    for k in range(1, 4):
        nz = np.nonzero(np.concatenate([m.A[k].ravel(), m.B[k].ravel()]))[0]
        assert len(nz) == 1


def test_factor_mode_dedupes_shared_factors():
    model = make_model(["sin(x1) + u1", "3*sin(x1) - x2"], ["x1"], 2, 1)
    m_f, sm_f = extract_factor(factorize(model))
    assert sm_f.entry_strings() == ["sinc(x1)"]
    assert m_f.A[1][0, 0] == 1.0 and m_f.A[1][1, 0] == 3.0
    m_e, sm_e = extract_element(factorize(model))
    assert sm_e.entry_strings() == ["sinc(x1)", "3*sinc(x1)"]


# ------------------------------------------- dense reference of the extraction

def reference_extract(fs, split):
    """The dense fill the stored triplets replaced: every (coefficient,
    factor) hit is added with += into zeroed (np + 1, rows, cols) arrays."""
    blocks = {t: getattr(fs, f"{t}_bar") for t in "ABCD"}
    index = {}
    hits = []
    for tag, block in blocks.items():
        for i, row in enumerate(block.entries):
            for j, e in enumerate(row):
                terms = e.terms if split and isinstance(e, Add) else (e,)
                for term in terms:
                    if not term.free_vars():
                        hits.append((tag, 0, i, j, tree_eval(term, {})))
                        continue
                    coeff, factor = _split_term(term) if split else (1.0, term)
                    k = index.setdefault(factor, len(index)) + 1
                    hits.append((tag, k, i, j, coeff))
    arrays = {t: np.zeros((len(index) + 1,) + b.shape)
              for t, b in blocks.items()}
    for tag, k, i, j, coeff in hits:
        arrays[tag][k, i, j] += coeff
    return arrays, tuple(index)


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
    if kind == "numeric":
        return oracle_model(key)
    if kind == "network":
        return network_doc(int(key)).model
    if kind == "bundled":
        return load_bundled(key).model
    if kind == "corpus":
        return corpus_models()[int(key)]
    if kind == "chain":
        return chain_model(int(key))
    return random_model(int(key))


ORACLE_SOURCES = ([f"bundled:{b}" for b in BUNDLED]
                  + [f"corpus:{k}" for k in range(3)]
                  + [f"random:{k}" for k in range(30)]
                  + ["chain:30"])


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_triplets_are_the_nonzeros_of_the_dense_fill(source):
    fs = factorize(oracle_model(source))
    for extract, split in ((extract_element, False), (extract_factor, True)):
        m, sm = extract(fs)
        arrays, entries = reference_extract(fs, split)
        assert sm.entries == entries
        for t in "ABCD":
            f, want = m.coeffs[t], arrays[t]
            k, i, j = np.nonzero(want)
            assert f.shape == want.shape, (split, t)
            for got, ref in ((f.k, k), (f.i, i), (f.j, j)):
                assert np.array_equal(got, ref), (split, t)
            assert f.c.tobytes() == want[k, i, j].tobytes(), (split, t)
            assert getattr(m, t).tobytes() == want.tobytes(), (split, t)


def _outcome(fn):
    """The values ``fn()`` returns as bytes, or the type and text of what
    it raises."""
    try:
        return np.array(fn(), dtype=float).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_vector_functions_equal_the_per_entry_functions(source):
    # f and h, the factor matrices and both scheduling maps, with every
    # lam-dependent entry deferred in numeric mode; numpy and float
    # arguments, as the callers pass them
    model = oracle_model(source)
    names = model.var_names
    rng = np.random.default_rng(17)
    points = [rng.uniform(-1.5, 1.5, len(names)) for _ in range(3)]
    for mode in ("analytic", "numeric"):
        fs = factorize(model, mode=mode)
        lists = [model.f + model.h,
                 *(tuple(chain(*getattr(fs, f"{t}_bar").entries))
                   for t in "ABCD"),
                 *(extract(fs)[1].entries
                   for extract in (extract_element, extract_factor))]
        for exprs in lists:
            vector = compile_vector(exprs, names, "e")
            scalars = [compile_scalar(e, names) for e in exprs]
            for args in chain(points, ([float(v) for v in x] for x in points)):
                want = _outcome(lambda: [fn(*args) for fn in scalars])
                assert _outcome(lambda: vector(*args)) == want, (mode, exprs)


def test_dense_views_are_read_only_and_fresh(disk_doc):
    m, _sm = extract_factor(factorize(disk_doc.model))
    for t in "ABCD":
        with pytest.raises(ValueError, match="read-only"):
            getattr(m, t)[0, 0, 0] = 1.0
    assert m.A is not m.A
    m.coeffs["A"].c[0] = 2.0           # an edit to the triplets shows
    assert m.A[0, 0, 1] == 2.0


def test_extraction_modes_build_the_same_matrices(block_at):
    rng = random.Random(3)
    for seed in range(6):
        model = random_model(seed)
        fs = factorize(model)
        m_e, sm_e = extract_element(fs)
        m_f, sm_f = extract_factor(fs)
        for _ in range(10):
            x = [rng.uniform(-1.5, 1.5) for _ in range(model.nx)]
            u = [rng.uniform(-1.5, 1.5) for _ in range(model.nu)]
            Ae, Be, Ce, De = m_e.matrices(sm_e.evaluate(x, u))
            Af, Bf, Cf, Df = m_f.matrices(sm_f.evaluate(x, u))
            b = dict(zip(model.var_names, x + u))
            ref = [block_at(getattr(fs, f"{t}_bar"), b) for t in "ABCD"]
            for got_e, got_f, want in zip((Ae, Be, Ce, De),
                                          (Af, Bf, Cf, Df), ref):
                assert np.max(np.abs(got_e - want)) < 1e-10
                assert np.max(np.abs(got_f - want)) < 1e-10


def test_affine_evaluation_is_linear_in_p(disk_doc):
    m, _sm = extract_factor(factorize(disk_doc.model))
    rng = random.Random(19)
    for _ in range(20):
        p1 = np.array([rng.uniform(-2, 2)])
        p2 = np.array([rng.uniform(-2, 2)])
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        A_mix = m.matrices(a * p1 + b * p2)[0]
        A_lin = (a * m.matrices(p1)[0] + b * m.matrices(p2)[0]
                 - (a + b - 1.0) * m.matrices([0.0])[0])
        assert np.max(np.abs(A_mix - A_lin)) < 1e-13


def test_eval_wrappers(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    p = sm.evaluate([0.5, 1.0], [0.2])
    assert p[0] == pytest.approx(math.sin(0.5) / 0.5, rel=1e-15)
    A = m.matrices(p)[0]
    assert A[1, 0] == pytest.approx(130.9636363636364 * p[0], rel=1e-15)


# tolerance of the sparse maps against the dense reference, fixed before
# the maps were written: they only reorder the float sums of matrices(p)
MAP_TOL = 1e-12


def _assert_maps_match_dense(m, points, label=""):
    """The sparse maps against matrices(p) at (p, x, u) triplets."""
    state, output = m.affine_maps()
    x_bar = np.asarray(m.anchor.x_bar)
    u_bar = np.asarray(m.anchor.u_bar)
    for p, x, u in points:
        A, B, C, D = m.matrices(p)
        for got, want in ((state(p, x, u), A @ (x - x_bar) + B @ (u - u_bar)
                           + m.V),
                          (output(p, x, u), C @ (x - x_bar) + D @ (u - u_bar)
                           + m.W)):
            assert got.shape == want.shape, label
            assert np.all(np.abs(got - want) <= MAP_TOL * (1 + np.abs(want))), \
                label


def _map_cases():
    """(label, NlssModel, anchor) for every model the maps are checked on."""
    for doc in corpus():
        yield doc.model.name, doc.model, None
    for seed in range(30):
        yield f"random_model({seed})", random_model(seed), None
    yield ("disk anchored", load_bundled("unbalanced_disk").model,
           Anchor((0.7, -1.2), (0.4,)))
    # h is a constant: C and D hold no nonzero, the output map is W alone
    yield "constant output", make_model(["-x1 + sin(x1)*u1"], ["0.5"], 1, 1), \
        None


@pytest.mark.parametrize("extract", [extract_element, extract_factor])
def test_affine_maps_agree_with_dense_matrices(extract):
    rng = np.random.default_rng(11)
    for label, model, anchor in _map_cases():
        m, sm = extract(factorize(model, anchor))
        points = []
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, model.nx)
            u = rng.uniform(-1.5, 1.5, model.nu)
            # on the scheduling map, and off it: the maps are affine in
            # any p, not only in p = eta(x, u)
            points.append((sm.evaluate(x, u), x, u))
            points.append((rng.uniform(-3, 3, m.np), x, u))
        _assert_maps_match_dense(m, points, label)


def _dense_gather_map(X, U, offset, bar):
    """The map as it was built from the dense arrays: the nonzeros of
    [X | U] in np.nonzero's row-major order, summed by np.bincount."""
    XU = np.concatenate((X, U), axis=2)
    k, i, j = np.nonzero(XU)
    c = XU[k, i, j]

    def apply(p, x, u):
        w = np.concatenate(((1.0,), p))
        z = np.concatenate((x, u)) - bar
        return np.bincount(i, weights=c * w[k] * z[j],
                           minlength=XU.shape[1]) + offset
    return apply


@pytest.mark.parametrize("extract", [extract_element, extract_factor])
def test_affine_maps_sum_bit_for_bit_like_the_dense_gather(extract):
    # merging the triplets of X and U must reproduce the dense gather's
    # summation order, so that trajectories stay bit-identical
    rng = np.random.default_rng(13)
    for label, model, anchor in _map_cases():
        m, sm = extract(factorize(model, anchor))
        bar = np.concatenate((m.anchor.x_bar, m.anchor.u_bar))
        maps = m.affine_maps()
        refs = (_dense_gather_map(m.A, m.B, m.V, bar),
                _dense_gather_map(m.C, m.D, m.W, bar))
        for _ in range(3):
            x = rng.uniform(-1.5, 1.5, model.nx)
            u = rng.uniform(-1.5, 1.5, model.nu)
            p = sm.evaluate(x, u)
            for got, ref in zip(maps, refs):
                assert got(p, x, u).tobytes() == ref(p, x, u).tobytes(), label


def test_affine_maps_edge_shapes():
    rng = np.random.default_rng(5)
    # np = 0: an LTI model
    m, _ = extract_factor(factorize(make_model(["-x1 + 2*u1"], ["3*x1 - u1"],
                                               1, 1)))
    assert m.np == 0
    _assert_maps_match_dense(m, [(np.zeros(0), rng.uniform(-1, 1, 1),
                                  rng.uniform(-1, 1, 1)) for _ in range(3)])
    # nu = 0, which model files cannot declare but the array form allows
    A = rng.uniform(-1, 1, (3, 2, 2))
    A[1, 0, 1] = 0.0
    m = LpvssModel.from_dense(nx=2, nu=0, ny=1, np=2,
                              A=A, B=np.zeros((3, 2, 0)),
                              C=rng.uniform(-1, 1, (3, 1, 2)),
                              D=np.zeros((3, 1, 0)),
                              V=np.array([0.1, -0.2]), W=np.array([0.3]),
                              anchor=Anchor((0.5, -0.5), ()))
    _assert_maps_match_dense(m, [(rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2),
                                  np.zeros(0)) for _ in range(5)])


def test_lpvss_shape_validation():
    with pytest.raises(ModelError):
        LpvssModel.from_dense(
            nx=2, nu=1, ny=1, np=1,
            A=np.zeros((2, 2, 2)), B=np.zeros((2, 2, 1)),
            C=np.zeros((1, 1, 2)), D=np.zeros((2, 1, 1)),  # C np+1 wrong
            V=np.zeros(2), W=np.zeros(1), anchor=None)


def test_lpvss_rejects_non_finite_coefficients():
    def build(**bad):
        arrays = dict(A=np.zeros((2, 2, 2)), B=np.zeros((2, 2, 1)),
                      C=np.zeros((2, 1, 2)), D=np.zeros((2, 1, 1)),
                      V=np.zeros(2), W=np.zeros(1))
        arrays.update(bad)
        return LpvssModel.from_dense(nx=2, nu=1, ny=1, np=1, **arrays,
                                     anchor=Anchor.origin(2, 1))

    build()
    A = np.zeros((2, 2, 2))
    A[1, 0, 1] = np.inf
    with pytest.raises(ModelError, match=r"A\[1, 0, 1\] = inf is not finite"):
        build(A=A)
    with pytest.raises(ModelError, match=r"W\[0\] = nan is not finite"):
        build(W=np.array([np.nan]))


# ----------------------------------------------------------------------- range

def test_range_of_disk_factor(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    rb = estimate_range(sm, disk_doc.box, grid_per_dim=10001)
    lo, hi = rb.raw[0]
    assert hi == 1.0                       # grid contains x1 = 0
    assert lo == pytest.approx(-0.217234, abs=1e-4)
    wlo, whi = rb.reported[0]
    assert wlo == pytest.approx(lo * 1.005, rel=1e-12)
    assert whi == pytest.approx(1.005, rel=1e-12)


def test_range_only_grids_the_footprint():
    # p2 depends on u1 alone; x bounds may be absent for it
    sm = SchedulingMap(entries=(pe("sinc(x1)", ("x1", "u1")),
                                pe("u1^2", ("x1", "u1"))),
                       var_names=("x1", "u1"))
    rb = estimate_range(sm, {"x1": (-2.0, 2.0), "u1": (-3.0, 1.0)},
                        grid_per_dim=101)
    assert rb.raw[1] == (0.0, 9.0)
    assert sm.footprints == (("x1",), ("u1",))


def test_range_missing_bounds():
    sm = SchedulingMap(entries=(pe("sinc(x1)", ("x1",)),), var_names=("x1",))
    with pytest.raises(ModelError):
        estimate_range(sm, {"u1": (0.0, 1.0)})


def test_range_without_a_box_names_the_missing_bounds():
    # None is an empty box, not a TypeError
    sm = SchedulingMap(entries=(pe("sinc(x1)", ("x1",)),), var_names=("x1",))
    with pytest.raises(ModelError, match="^p1 needs bounds for x1$"):
        estimate_range(sm, None)


def test_range_degenerate_box():
    sm = SchedulingMap(entries=(pe("sinc(x1)", ("x1",)),), var_names=("x1",))
    rb = estimate_range(sm, {"x1": (0.0, 0.0)}, grid_per_dim=11)
    assert rb.raw[0] == (1.0, 1.0)
    assert rb.reported[0] == (0.995, 1.005)
    # a constant entry has no footprint: its grid is one point
    const = SchedulingMap(entries=(Const(2.0),), var_names=("x1",))
    assert estimate_range(const, {}, grid_per_dim=11).raw == ((2.0, 2.0),)


def test_range_budget_exceeded(monkeypatch):
    names = ("x1", "x2", "u1")
    sm = SchedulingMap(entries=(pe("x1*x2*u1", names),), var_names=names)
    box = {n: (-1.0, 1.0) for n in names}
    monkeypatch.setattr(lpv, "RANGE_GRID_BUDGET", 1000)
    with pytest.raises(RangeGridError, match="11\\^3 = 1331 grid points "
                       "exceed the budget of 1000"):
        estimate_range(sm, box, grid_per_dim=11)
    monkeypatch.setattr(lpv, "RANGE_GRID_BUDGET", 2000)
    rb = estimate_range(sm, box, grid_per_dim=11)
    assert rb.raw[0] == (-1.0, 1.0)


def test_box_whose_width_overflows_is_rejected(disk_doc):
    # 1e308 - (-1e308) is inf: grid and samples built from it would be nan
    m, sm = extract_factor(factorize(disk_doc.model))
    box = {"x1": (-1e308, 1e308), "x2": (-1.0, 1.0), "u1": (-1.0, 1.0)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ModelError, match="box for x1: width"):
            estimate_range(sm, box, grid_per_dim=11)
        with pytest.raises(ModelError, match="box for x1: width"):
            verify_embedding(disk_doc.model, m, sm, samples=10, box=box)
    assert [str(w.message) for w in caught] == []


def test_range_reports_domain_errors_per_entry():
    sm = SchedulingMap(entries=(pe("ln(x1)", ("x1",)),), var_names=("x1",))
    with pytest.raises(EntryError):
        estimate_range(sm, {"x1": (-1.0, 1.0)}, grid_per_dim=11)


def test_range_rejects_nan_on_part_of_the_box():
    # x2*x3 overflows to inf; times abs(x1) - x1 it is nan for x1 >= 0 and
    # +inf (tanh 1) for x1 < 0, so a NaN-blind scan would report (1, 1)
    names = ("x1", "x2", "x3")
    sm = SchedulingMap(entries=(pe("x1", names),
                                pe("tanh(x2*x3*(abs(x1) - x1))", names)),
                       var_names=names)
    box = {"x1": (-1.0, 1.0), "x2": (1e200, 1e200), "x3": (1e200, 1e200)}
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EntryError) as ei:
            estimate_range(sm, box, grid_per_dim=11)
    assert ei.value.index == 1
    assert str(ei.value) == ("p2: non-finite value nan at grid point "
                             "x1=0.0, x2=1e+200, x3=1e+200")


def test_range_bounds_grid_samples_exactly(disk_doc):
    # raw extrema bound every grid sample; the widened box bounds random
    # off-grid points for a fine grid
    m, sm = extract_factor(factorize(disk_doc.model))
    rb = estimate_range(sm, disk_doc.box, grid_per_dim=10001)
    lo, hi = rb.raw[0]
    grid = np.linspace(*disk_doc.box["x1"], 101)
    for x1 in grid:
        v = sm.evaluate([x1, 0.0], [0.0])[0]
        assert lo <= v <= hi
    rng = random.Random(23)
    wlo, whi = rb.reported[0]
    for _ in range(500):
        x1 = rng.uniform(*disk_doc.box["x1"])
        v = sm.evaluate([x1, 0.0], [0.0])[0]
        assert wlo <= v <= whi


def test_range_box_first_exit():
    rb = RangeBox(raw=((-1.0, 1.0), (0.0, 2.0)),
                  reported=((-1.0, 1.0), (0.0, 2.0)), grid_per_dim=11, box={})
    t = np.array([0.0, 0.5, 1.0, 1.5])
    inside = np.array([[0.0, 1.0], [1.0, 2.0], [-1.0, 0.0], [0.5, 0.5]])
    assert rb.first_exit(t, inside) is None      # the bounds are inside
    p = inside.copy()
    p[1] = [1.5, 2.5]                            # both leave at t = 0.5
    p[3] = [0.5, -0.1]
    assert rb.first_exit(t, p) == (0, 0.5, 2)
    p[1] = [1.0, 2.5]
    assert rb.first_exit(t, p) == (1, 0.5, 2)
    empty = RangeBox(raw=(), reported=(), grid_per_dim=11, box={})
    assert empty.first_exit(t, np.zeros((4, 0))) is None


def test_scheduling_error_carries_index():
    x1 = ("x1",)
    # a failure inside a deferred entry's quadrature is blamed on it too:
    # 1/(x1 - lam) divides by zero at the node lam = 0.5
    for failing, at, message in (
            (pe("ln(x1)", x1), -2.0, "p2: ln of non-positive value"),
            (DeferredIntegral(pe("1/(x1 - lam)", x1 + ("lam",))), 0.5,
             "p2: float division by zero")):
        sm = SchedulingMap(entries=(pe("x1", x1), failing), var_names=x1)
        with pytest.raises(EntryError) as ei:
            sm.evaluate([at], [])
        assert ei.value.index == 1
        assert str(ei.value) == message
        assert sm.evaluate([2.0], [])[0] == 2.0


def test_scheduling_error_blames_the_entry_the_vector_stopped_at():
    # numpy arguments keep numpy semantics: 1/np.float64(0) is inf, so
    # p2 fails, where tree evaluation would blame p1
    x1 = ("x1",)
    sm = SchedulingMap(entries=(pe("1/x1", x1), pe("ln(x1)", x1)),
                       var_names=x1)
    with np.errstate(divide="ignore"), pytest.raises(EntryError) as ei:
        sm.evaluate(np.array([0.0]), np.array([]))
    assert (ei.value.index, str(ei.value)) == (1, "p2: ln of non-positive value")
    with pytest.raises(EntryError) as ei:
        sm.evaluate([0.0], [])
    assert (ei.value.index, str(ei.value)) == (0, "p1: float division by zero")


def test_a_failing_float_call_is_redone_on_numpy_scalars_before_any_search():
    # on floats ln(x1 - 1), computed once into a local, raises before the
    # return tuple reaches 1/x1; a search on floats would blame p1 for a
    # division by zero that numpy scalars pass as inf
    x1 = ("x1",)
    sm = SchedulingMap(entries=(pe("1/x1", x1),
                                pe("ln(x1 - 1) + sin(ln(x1 - 1))", x1)),
                       var_names=x1)
    with np.errstate(divide="ignore"), pytest.raises(EntryError) as ei:
        sm.evaluate(np.array([0.0]), np.array([]))
    assert (ei.value.index, str(ei.value)) == (1, "p2: ln of non-positive value")
    with pytest.raises(EntryError) as ei:
        sm.evaluate([0.0], [])
    assert (ei.value.index, str(ei.value)) == (0, "p1: float division by zero")


def test_scheduling_map_at_a_float_zero_division_keeps_numpy_semantics():
    x1 = ("x1",)
    sm = SchedulingMap(entries=(pe("tanh(1/x1)", x1), pe("x1 - 1/x1", x1)),
                       var_names=x1)
    with np.errstate(divide="ignore"):
        p = sm.evaluate(np.array([0.0]), np.array([]))
    assert p.tolist() == [1.0, -math.inf]


def outcome(call):
    """The bits of what ``call`` returns, or the EntryError it raises."""
    try:
        with np.errstate(all="ignore"):
            return np.array(call(), dtype=float).view(np.int64).tolist()
    except EntryError as exc:
        return exc.label, str(exc)


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_floats_first_equal_the_call_on_numpy_scalars(source):
    model = oracle_model(source)
    names = model.var_names
    _, sm = extract_factor(factorize(model))
    vectors = (compile_vector(model.f, names, "f"),
               compile_vector(model.h, names, "h"), sm._vector)
    rng = np.random.default_rng(7)
    # a random point, the origin and points with zeros in them, where
    # 1/x, sinc and friends meet their removable singularities
    rows = [4 * rng.random(len(names)) - 2 for _ in range(8)]
    rows += [np.zeros(len(names)), np.where(rows[0] < 0, 0.0, rows[0])]
    for row in rows:
        x, u = row[:model.nx], row[model.nx:]
        for vector in vectors:
            assert (outcome(lambda: call_floats(vector, x, u))
                    == outcome(lambda: vector(*x, *u)))


# ------------------------------------------- range scan through the numpy table

# the oracle sweep and 30 more random models
TABLE_SOURCES = ORACLE_SOURCES + [f"random:{k}" for k in range(30, 60)]
# sources with deferred entries: the benchmark's networks, and a chain
# factorized in numeric mode ("numeric:" + source), which defers every
# lam-dependent entry
DEFERRED_SOURCES = [f"network:{k}" for k in range(4)] + ["numeric:chain:5"]


def source_box(source):
    kind, _, key = source.partition(":")
    if kind == "numeric":
        return source_box(key)
    if kind == "bundled":
        return load_bundled(key).box
    if kind == "network":
        return network_doc(int(key)).box
    return default_box(oracle_model(source))


def lpv_models(source):
    """(LpvssModel, SchedulingMap) of both extractions."""
    mode = "numeric" if source.startswith("numeric:") else "analytic"
    fs = factorize(oracle_model(source), mode=mode)
    return [extract(fs) for extract in (extract_element, extract_factor)]


def scheduling_maps(source):
    return [sm for _m, sm in lpv_models(source)]


def reference_range(sm, box, grid_per_dim):
    """The scan before the numpy table: every grid point, in product
    order, through the entry's compiled scalar function."""
    raw = []
    for e, fp in zip(sm.entries, sm.footprints):
        fn = compile_scalar(e, fp)
        lo = hi = None
        for pt in product(*(np.linspace(*box[n], grid_per_dim) for n in fp)):
            v = fn(*pt)
            if lo is None or v < lo:
                lo = v
            if hi is None or v > hi:
                hi = v
        raw.append((lo, hi))
    return tuple(raw)


def bits(raw):
    return np.array(raw, dtype=float).tobytes()


def sent_to_at(e, *columns):
    """Where a deferred entry's ``at_array`` calls ``at``: the points its
    numpy panel on [0, 1] leaves unsettled and one bisection of [0, 1]
    does not settle either."""
    k, _, err = e._array_panel(*columns, 0.0, 1.0)
    redo = unsettled(err, k)
    if redo.any():
        total, total_err = bisected(
            partial(e._array_panel, *(c[redo] for c in columns)), 0.0, 1.0,
            k[redo], err[redo])
        redo[redo] = unsettled(total_err, total)
    return redo


@pytest.mark.parametrize("source", TABLE_SOURCES + DEFERRED_SOURCES)
def test_numpy_table_equals_the_scalar_functions_within_4_ulp(source):
    # a 9-point grid per footprint component (0 included, where the
    # removable singularities sit) and random points; an ulp is taken at
    # the entry's largest magnitude there, since tanh, exp, expm1 and tan
    # differ from math's by a few ulp and sums may cancel.  A deferred
    # entry keeps its numpy estimate only where its panel or one
    # bisection settles, and is at's value bit for bit at every other
    # point
    rng = np.random.default_rng(5)
    for sm in scheduling_maps(source):
        for e, fp in zip(sm.entries, sm.footprints):
            vec = compile_array(e, fp)
            grid = np.array(list(product(np.linspace(-1.5, 1.5, 9),
                                         repeat=len(fp))))
            pts = np.concatenate((grid, rng.uniform(-1.5, 1.5, (20, len(fp)))))
            with np.errstate(all="raise", under="ignore"):
                got = vec(*pts.T)
            fn = compile_scalar(e, fp)
            want = np.array([fn(*row) for row in pts])
            ulp = np.spacing(np.abs(want).max())
            assert np.abs(got - want).max() <= 4 * ulp, e
            if isinstance(e, DeferredIntegral):
                redo = sent_to_at(e, *pts.T)
                assert got[redo].tobytes() == want[redo].tobytes(), e


@pytest.mark.parametrize("source", TABLE_SOURCES + DEFERRED_SOURCES)
def test_range_equals_the_scalar_scan_bit_for_bit(source):
    box = source_box(source)
    for sm in scheduling_maps(source):
        rb = estimate_range(sm, box, grid_per_dim=41)
        assert bits(rb.raw) == bits(reference_range(sm, box, 41))


def count_at_calls(monkeypatch):
    """Counter of DeferredIntegral.at calls, per node."""
    calls = Counter()
    at = DeferredIntegral.at

    def counted(self, *values):
        calls[self] += 1
        return at(self, *values)
    monkeypatch.setattr(DeferredIntegral, "at", counted)
    return calls


def test_network_range_integrates_only_where_the_panel_does_not_settle(
        monkeypatch):
    # at runs at the points that neither the numpy panel nor its one
    # bisection settles, then at the two extrema, where the scalar
    # function re-evaluates the entry
    doc = network_doc(0)
    _m, sm = extract_factor(factorize(doc.model))
    calls = count_at_calls(monkeypatch)
    estimate_range(sm, doc.box, grid_per_dim=101)
    want, points = {}, 0
    for e, fp in zip(sm.entries, sm.footprints):
        if isinstance(e, DeferredIntegral):
            cols = product(*(np.linspace(*doc.box[n], 101) for n in fp))
            redo = sent_to_at(e, *np.array(list(cols)).T)
            want[e] = int(np.count_nonzero(redo)) + 2
            points += redo.size
    # a scan walking every point would call at 21,230 times
    assert len(want) == 10 and points + 2 * len(want) == 21_230
    assert calls == want
    assert sum(want.values()) < points / 20


def test_a_convert_compiles_one_numpy_panel_per_scanned_entry(
        monkeypatch, tmp_path):
    # which verification reuses; loading the artifact and simulating it
    # compile none, since the entries built at load time keep no numpy
    # panel, and verifying it then compiles one per entry
    import gc
    from lpvembed import factorize as fz
    from lpvembed.modelfile import load_artifact, save_artifact
    from lpvembed.sim import InputSignal, simulate_lpv_self_scheduled
    compiled = Counter()
    compile_panel = fz.compile_panel

    def counted(*args, **kwargs):
        compiled[kwargs.get("table", "scalar")] += 1
        return compile_panel(*args, **kwargs)
    monkeypatch.setattr(fz, "compile_panel", counted)

    def convert(path):
        doc = network_doc(1, seed=2)
        fs = factorize(doc.model)
        m, sm = extract_factor(fs)
        m.range_box = estimate_range(sm, doc.box, grid_per_dim=21)
        verify_embedding(doc.model, m, sm, samples=50, box=doc.box)
        save_artifact(str(path), m, sm)
        return sum(isinstance(e, DeferredIntegral) for e in sm.entries)
    path = tmp_path / "network.json"
    scanned = convert(path)
    assert scanned and compiled["numpy"] == scanned
    gc.collect()
    compiled.clear()
    m, sm, _doc = load_artifact(str(path))
    assert compiled["scalar"] == scanned   # the nodes are built anew
    simulate_lpv_self_scheduled(m, sm, np.full(8, 0.5),
                                InputSignal.from_exprs(["sin(t)"], 1), 1.0)
    assert compiled["numpy"] == 0
    assert all(e._array_panel is None for e in sm.entries
               if isinstance(e, DeferredIntegral))
    doc = network_doc(1, seed=2)
    verify_embedding(doc.model, m, sm, samples=50, box=doc.box)
    assert compiled["numpy"] == scanned


@pytest.mark.parametrize("text, budget", [
    ("ln(lam*x1 + 0.5)", None),         # a flag in the numpy panel
    ("x1/(lam - 0.25)", None),          # at raises: 0.25 is a bisection's
    ("sqrt(abs(lam - 0.3*x1))", 3),     # centre; the budget runs out
], ids=["ln", "pole", "budget"])
def test_a_failing_deferred_entry_raises_as_the_walk_does(monkeypatch, text,
                                                          budget):
    from lpvembed import quadrature
    if budget is not None:
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", budget)
    e = DeferredIntegral(pe(text, ("x1", "lam")))
    box = {"x1": (-1.0, 1.0)}

    def raised():
        # a new map compiles its numpy functions anew, patched or not
        sm = SchedulingMap((e,), ("x1",))
        with pytest.raises(Exception) as ei:
            estimate_range(sm, box, grid_per_dim=11)
        return type(ei.value), str(ei.value)
    got = raised()

    def refuse(*columns):  # every block walked point by point
        raise EvalError("refused")
    monkeypatch.setattr(lpv, "compile_array", lambda e, names: refuse)
    assert got == raised()


def test_range_ties_keep_the_first_signed_zero():
    # x1*x2 is -0.0 for x1 < 0 and 0.0 after; the scan keeps the first
    names = ("x1", "x2")
    sm = SchedulingMap((pe("x1*x2", names),), names)
    box = {"x1": (-1.0, 1.0), "x2": (0.0, 0.0)}
    (lo, hi), = estimate_range(sm, box, grid_per_dim=11).raw
    assert (lo, hi) == (0.0, 0.0)
    assert math.copysign(1.0, lo) == math.copysign(1.0, hi) == -1.0


def test_range_in_small_blocks_equals_one_block(monkeypatch):
    names = ("x1", "x2")
    ties = SchedulingMap((pe("x1*x2", names),), names)
    cases = [(ties, {"x1": (-1.0, 1.0), "x2": (0.0, 0.0)}, 21)]
    for source in ("bundled:unbalanced_disk", "bundled:tanh_example",
                   "chain:5", "random:3", "random:8", "network:0"):
        for sm in scheduling_maps(source):
            cases.append((sm, source_box(source), 21))
    assert any(isinstance(e, DeferredIntegral)
               for sm, _box, _grid in cases for e in sm.entries)
    want = [bits(estimate_range(sm, box, grid_per_dim=grid).raw)
            for sm, box, grid in cases]
    # 1^nan is 1: NaN for x1 > 0 only
    x1 = Var("x1")
    late_nan = SchedulingMap(
        (pow_(add(1.0, call("abs", x1), x1), Const(math.nan)),), ("x1",))
    for block in (3, 64):
        monkeypatch.setattr(lpv, "RANGE_BLOCK", block)
        got = [bits(estimate_range(sm, box, grid_per_dim=grid).raw)
               for sm, box, grid in cases]
        assert got == want, block
        # a NaN from a NaN constant raises no flag, and NaN is never a
        # block's new extremum: a later block holding one must fall back
        with pytest.raises(EntryError, match="non-finite value nan at "
                           "grid point x1=0.2"):
            estimate_range(late_nan, {"x1": (-1.0, 1.0)}, grid_per_dim=11)


def count_scalar_calls(monkeypatch):
    """Counter of calls to each entry's scalar function in the scan."""
    calls = Counter()

    def counted(e, names):
        fn = compile_scalar(e, names)

        def call(*args):
            calls[e] += 1
            return fn(*args)
        return call
    monkeypatch.setattr(lpv, "compile_scalar", counted)
    return calls


def test_chain_range_calls_the_scalar_functions_only_at_the_extrema(
        monkeypatch):
    calls = count_scalar_calls(monkeypatch)
    model = chain_model(30)
    _m, sm = extract_factor(factorize(model))
    rb = estimate_range(sm, default_box(model), grid_per_dim=101)
    assert calls == {e: 2 for e in sm.entries}
    monkeypatch.undo()
    assert bits(rb.raw) == bits(reference_range(sm, default_box(model), 101))


@pytest.mark.parametrize("text, box, message, raw", [
    ("ln(x1)", (-1.0, 1.0),
     "p1: ln of non-positive value at grid point x1=-1.0", None),
    # the scalar function runs on numpy scalars, where 1/0.0 is inf
    ("1/x1", (-1.0, 1.0),
     "p1: non-finite value inf at grid point x1=0.0", None),
    # x1*x1 overflows above 1.3e154, and 1/inf is 0.0
    ("1/(x1*x1)", (1e100, 1e200), None, ((0.0, 1e-200),)),
    # tanh and exp take the inf at x1 = 0 to a finite value, as
    # SchedulingMap.evaluate does on a simulated state
    ("tanh(1/x1)", (-1.0, 1.0), None, ((math.tanh(-5.0), 1.0),)),
    ("exp(-1/(x1*x1))", (-1.0, 1.0), None, ((0.0, math.exp(-1.0)),)),
], ids=["ln", "pole", "intermediate-overflow", "pole-tanh", "pole-exp"])
def test_range_falls_back_to_the_scalar_scan(monkeypatch, text, box,
                                             message, raw):
    # no errstate here: neither path may let a numpy warning out
    calls = count_scalar_calls(monkeypatch)
    sm = SchedulingMap((pe(text, ("x1",)),), ("x1",))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if message is None:
            rb = estimate_range(sm, {"x1": box}, grid_per_dim=11)
            assert rb.raw == raw
            # the one flagged block, then the two extremal points
            assert sum(calls.values()) == 11 + 2
        else:
            with pytest.raises(EntryError) as ei:
                estimate_range(sm, {"x1": box}, grid_per_dim=11)
            assert str(ei.value) == message
    assert [str(w.message) for w in caught] == []


def test_range_walks_only_the_flagged_block(monkeypatch):
    # 1e300/(x1*x1 + 1e-300) overflows at x1 = 0 alone, the middle of
    # 11 points; with blocks of 4 that is block 4..7, and 1/(1 + inf) is 0
    monkeypatch.setattr(lpv, "RANGE_BLOCK", 4)
    calls = count_scalar_calls(monkeypatch)
    sm = SchedulingMap((pe("x1 + 1/(1 + 1e300/(x1*x1 + 1e-300))", ("x1",)),),
                       ("x1",))
    box = {"x1": (-1.0, 1.0)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rb = estimate_range(sm, box, grid_per_dim=11)
    assert [str(w.message) for w in caught] == []
    assert sum(calls.values()) == 4 + 2
    assert rb.raw == ((-1.0, 1.0),)


def test_range_domain_error_names_the_grid_point():
    names = ("x1", "u1")
    sm = SchedulingMap((pe("u1^2", names), pe("sqrt(x1 + u1)", names)),
                       names)
    with pytest.raises(EntryError) as ei:
        estimate_range(sm, {"x1": (-1.0, 1.0), "u1": (-1.0, 1.0)},
                       grid_per_dim=3)
    assert ei.value.index == 1
    assert str(ei.value) == ("p2: sqrt of negative value at grid point "
                             "x1=-1.0, u1=-1.0")


# ---------------------------------------------------------------- verification

def test_verify_lti_is_exact():
    model = make_model(["-x1 + 2*u1"], ["x1"], 1, 1)
    m, sm = extract_factor(factorize(model))
    assert sm.np == 0
    rep = verify_embedding(model, m, sm, samples=200, seed=1)
    assert rep.max_residual <= 1e-14


def test_verify_disk(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    rep = verify_embedding(disk_doc.model, m, sm, samples=500,
                           box=disk_doc.box, seed=0)
    assert rep.max_residual < 1e-10
    assert rep.samples == 500 and rep.seed == 0


def test_verify_is_deterministic(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    a = verify_embedding(disk_doc.model, m, sm, box=disk_doc.box, seed=7)
    b = verify_embedding(disk_doc.model, m, sm, box=disk_doc.box, seed=7)
    assert np.array_equal(a.f_max, b.f_max)
    assert np.array_equal(a.h_max, b.h_max)


def test_verify_uses_unit_box_by_default():
    model = make_model(["-x1 + u1"], ["x1"], 1, 1)
    assert default_box(model) == {"x1": (-1.0, 1.0), "u1": (-1.0, 1.0)}


def test_corrupted_coefficient_is_detected(disk_doc, coeff_pos):
    m, sm = extract_factor(factorize(disk_doc.model))
    # damping coefficient off by 0.1
    m.coeffs["A"].c[coeff_pos(m.coeffs["A"], 0, 1, 1)] += 0.1
    rep = verify_embedding(disk_doc.model, m, sm, samples=1000,
                           box=disk_doc.box, seed=0)
    # residual is |0.1 * x2| at the worst sample, x2 ~ U(-10, 10)
    assert rep.max_residual >= 0.09


def test_corrupted_scheduling_coefficient_is_detected(disk_doc, coeff_pos):
    m, sm = extract_factor(factorize(disk_doc.model))
    # 0.1% error on the nonlinear term
    m.coeffs["A"].c[coeff_pos(m.coeffs["A"], 1, 1, 0)] *= 1.001
    rep = verify_embedding(disk_doc.model, m, sm, samples=1000,
                           box=disk_doc.box, seed=0)
    assert rep.max_residual > 1e-3


def test_verify_report_locates_worst_point(disk_doc, coeff_pos):
    m, sm = extract_factor(factorize(disk_doc.model))
    m.coeffs["A"].c[coeff_pos(m.coeffs["A"], 0, 1, 1)] += 0.1
    rep = verify_embedding(disk_doc.model, m, sm, samples=200,
                           box=disk_doc.box, seed=3)
    x, u = rep.f_worst[1]
    p = sm.evaluate(x, u)
    A, B, _, _ = m.matrices(p)
    f_lpv = A @ np.asarray(x) + B @ np.asarray(u)
    f_ref = [tree_eval(e, {"x1": x[0], "x2": x[1], "u1": u[0]})
             for e in disk_doc.model.f]
    assert abs((f_lpv - f_ref)[1]) == pytest.approx(rep.f_max[1], rel=1e-12)


def test_verify_fails_on_non_finite_residuals():
    # -x1*x1 overflows to -inf for |x1| > 1.34e154, so about a third of
    # the box gives inf - inf = NaN against the realization
    model = make_model(["-x1*x1 + u1"], ["x1"], 1, 1)
    m, sm = extract_factor(factorize(model))
    box = {"x1": (-2e154, 2e154), "u1": (-1.0, 1.0)}
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_embedding(model, m, sm, samples=1000, box=box, seed=0)
    assert not math.isfinite(rep.max_residual)
    assert not math.isfinite(rep.f_max[0])
    assert rep.h_max[0] == 0.0
    (x1,), _u = rep.f_worst[0]
    assert abs(x1) > math.sqrt(np.finfo(float).max)
    # the first non-finite sample is the worst point: replay the sampler
    rng = np.random.default_rng(0)
    pts = -2e154 + 4e154 * rng.random((1000, 2))
    first = next(row for row in pts
                 if abs(row[0]) > math.sqrt(np.finfo(float).max))
    assert x1 == first[0]


def _verify_per_entry(model, m, sm, samples, box, seed):
    """verify_embedding's worst residuals as the per-entry loop found
    them: a sample replaces the worst unless ``r <= worst``, and a
    non-finite worst is never replaced."""
    rng = np.random.default_rng(seed)
    names = model.var_names
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])
    pts = lo + (hi - lo) * rng.random((samples, len(names)))
    fns = [compile_scalar(e, names) for e in model.f + model.h]
    state_map, output_map = m.affine_maps()
    worst_r = np.zeros(len(fns))
    worst_at = [None] * len(fns)
    for row in pts:
        x, u = row[:model.nx], row[model.nx:]
        p = sm.evaluate(x, u)
        lpv = np.concatenate((state_map(p, x, u), output_map(p, x, u)))
        for i, fn in enumerate(fns):
            r = abs(lpv[i] - fn(*row))
            if worst_at[i] is None or (not r <= worst_r[i]
                                       and math.isfinite(worst_r[i])):
                worst_r[i] = r
                worst_at[i] = (tuple(x), tuple(u))
    return worst_r, worst_at


def test_verify_reduces_residuals_like_the_per_entry_loop(disk_doc, coeff_pos):
    # exact zeros tie everywhere; overflow gives inf and NaN residuals,
    # with finite ones before them
    m, sm = extract_factor(factorize(disk_doc.model))
    m.coeffs["A"].c[coeff_pos(m.coeffs["A"], 0, 1, 1)] += 0.1
    cases = [(disk_doc.model, m, sm, disk_doc.box)]
    # 1e308*x1 + 1e308*u1 is inf where one term overflows and NaN where
    # both do with opposite signs: the first non-finite residual is not
    # always the first NaN
    model = make_model(["-x1 + u1"], ["x1"], 1, 1)
    m, sm = extract_factor(factorize(model))
    for tag in "AB":
        m.coeffs[tag].c[coeff_pos(m.coeffs[tag], 0, 0, 0)] = 1e308
    cases.append((model, m, sm, {"x1": (-10.0, 10.0), "u1": (-10.0, 10.0)}))
    for f1, box in (("-x1*x1 + u1", (-2e154, 2e154)),
                    ("-x1 + 1e300*x1*x1*x1", (-1e3, 1e3)),
                    ("-x1 + u1", (-1.0, 1.0))):
        model = make_model([f1], ["x1"], 1, 1)
        cases.append((model, *extract_factor(factorize(model)),
                      {"x1": box, "u1": (-1.0, 1.0)}))
    with np.errstate(over="ignore", invalid="ignore"):
        for model, m, sm, box in cases:
            for seed in range(3):
                rep = verify_embedding(model, m, sm, samples=300, box=box,
                                       seed=seed)
                want_r, want_at = _verify_per_entry(model, m, sm, 300, box,
                                                    seed)
                got = np.concatenate((rep.f_max, rep.h_max))
                assert got.tobytes() == want_r.tobytes()
                assert rep.f_worst + rep.h_worst == want_at


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_needs_a_sample(disk_doc, samples):
    m, sm = extract_factor(factorize(disk_doc.model))
    with pytest.raises(ValueError, match="^samples must be at least 1"):
        verify_embedding(disk_doc.model, m, sm, samples=samples)


def test_verify_refuses_a_negative_seed(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    with pytest.raises(ValueError,
                       match="^seed must be non-negative, got -1$"):
        verify_embedding(disk_doc.model, m, sm, seed=-1)


def test_verify_names_the_variables_the_box_leaves_out(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    with pytest.raises(ModelError,
                       match="^verification needs bounds for x2, u1$"):
        verify_embedding(disk_doc.model, m, sm, box={"x1": (-1.0, 1.0)})


def test_verify_refuses_samples_over_the_float_budget(disk_doc,
                                                      monkeypatch):
    # the disk's points and residuals take 2*2 + 1 + 1 = 6 floats a sample
    m, sm = extract_factor(factorize(disk_doc.model))
    monkeypatch.setattr(lpv, "VERIFY_FLOAT_BUDGET", 60)
    assert verify_embedding(disk_doc.model, m, sm, samples=10).samples == 10
    with pytest.raises(ValueError) as ei:
        verify_embedding(disk_doc.model, m, sm, samples=11)
    assert str(ei.value) == ("samples = 11 needs 66 floats, over the "
                             "verification budget of 60")


def test_verify_max_residual_sees_a_non_finite_output_residual():
    # a NaN output residual must not be hidden behind finite state ones
    model = make_model(["-x1 + u1"], ["x1"], 1, 1)
    m, sm = extract_factor(factorize(model))
    rep = verify_embedding(model, m, sm, samples=10, seed=0)
    rep.h_max[0] = float("nan")
    assert math.isnan(rep.max_residual)


def test_verify_report_dict_roundtrips(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    rep = verify_embedding(disk_doc.model, m, sm, box=disk_doc.box, seed=0)
    d = rep.to_dict()
    assert d["samples"] == 1000 and d["seed"] == 0
    assert d["max_residual"] == rep.max_residual
    assert d["f_max"] == list(rep.f_max)


# ----------------------------------------------- verification in numpy blocks

# the most a verified residual may move from the sample-by-sample
# reference, fixed before measuring: the numpy table's tanh, exp, expm1,
# log and pow differ from math's by a few ulp, and the residuals are
# of order 1e-15
VERIFY_TOL = 1e-12


def verify_box(source):
    """The box convert verifies over: the declared one, completed with
    [-1, 1]."""
    return {**default_box(oracle_model(source)), **(source_box(source) or {})}


@pytest.mark.parametrize("source", ORACLE_SOURCES + DEFERRED_SOURCES)
def test_block_maps_equal_the_affine_maps_bit_for_bit(source):
    rng = np.random.default_rng(13)
    for m, _sm in lpv_models(source):
        blocks, maps = m.block_maps(), m.affine_maps()
        bar = np.concatenate((m.anchor.x_bar, m.anchor.u_bar))
        for n in (1, 7):
            p = rng.uniform(-2.0, 2.0, (m.np, n))
            pts = rng.uniform(-2.0, 2.0, (n, m.nx + m.nu))
            w = np.vstack((np.ones(n), p))
            z = (pts - bar).T
            for block, one in zip(blocks, maps):
                got = block(w, z)
                want = np.array([one(p[:, s], pts[s, :m.nx], pts[s, m.nx:])
                                 for s in range(n)]).T
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("source", ORACLE_SOURCES + DEFERRED_SOURCES)
def test_verify_equals_the_sample_by_sample_reference(source):
    model, box = oracle_model(source), verify_box(source)
    for m, sm in lpv_models(source):
        got = verify_embedding(model, m, sm, samples=200, box=box, seed=3)
        want = reference_verify(model, m, sm, 200, box, seed=3)
        for g, w in ((got.f_max, want.f_max), (got.h_max, want.h_max)):
            assert np.abs(g - w).max(initial=0.0) <= VERIFY_TOL


def test_verify_with_an_anchor_equals_the_reference(disk_doc):
    box = disk_doc.box
    fs = factorize(disk_doc.model, Anchor((0.5, -1.0), (0.25,)))
    for m, sm in (extract_element(fs), extract_factor(fs)):
        got = verify_embedding(disk_doc.model, m, sm, samples=300, box=box)
        want = reference_verify(disk_doc.model, m, sm, 300, box)
        assert np.abs(got.f_max - want.f_max).max() <= VERIFY_TOL
        assert np.abs(got.h_max - want.h_max).max() <= VERIFY_TOL


def test_range_and_verify_share_the_entries_numpy_functions(monkeypatch):
    # a convert compiles each scheduling entry's numpy function once
    compiled = Counter()

    def counted(e, names):
        compiled[e] += 1
        return compile_array(e, names)
    monkeypatch.setattr(lpv, "compile_array", counted)
    doc = network_doc(0)
    m, sm = extract_factor(factorize(doc.model))
    m.range_box = estimate_range(sm, doc.box, grid_per_dim=11)
    verify_embedding(doc.model, m, sm, samples=50, box=doc.box)
    assert compiled == Counter(sm.entries)


def test_verify_in_small_blocks_equals_one_block(monkeypatch):
    # the table works elementwise, so how the samples are cut into
    # blocks does not move a residual
    cases = [(oracle_model(s), verify_box(s), lpv_models(s))
             for s in ("bundled:unbalanced_disk", "random:3", "network:0")]

    def reports():
        return [verify_embedding(model, m, sm, samples=150, box=box)
                for model, box, pairs in cases for m, sm in pairs]
    want = reports()
    for block in (1, 64):
        monkeypatch.setattr(lpv, "VERIFY_BLOCK", block)
        for got, ref in zip(reports(), want):
            assert got.f_max.tobytes() == ref.f_max.tobytes()
            assert got.h_max.tobytes() == ref.h_max.tobytes()
            assert (got.f_worst, got.h_worst) == (ref.f_worst, ref.h_worst)


def empty_lpv(f1, h1, n_p=0):
    """A one-state model ``f1``, ``h1`` against an LPV model whose
    coefficients are all zero, with ``n_p`` scheduling variables."""
    model = make_model([f1], [h1], 1, 1)
    zero = np.zeros((n_p + 1, 1, 1))
    m = LpvssModel.from_dense(zero, zero, zero, zero, nx=1, nu=1, ny=1,
                              np=n_p, V=np.zeros(1), W=np.zeros(1),
                              anchor=Anchor.origin(1, 1))
    return model, m


def failing_cases():
    """(name, model, LPV model, scheduling map, box): entries that fail,
    a pole the floats divide by, and residuals that overflow."""
    unit = {"x1": (-1.0, 1.0), "u1": (-1.0, 1.0)}
    x1 = ("x1",)
    held = make_model(["-x1*tanh(1/x1)"], ["tanh(1/x1) + x1"], 1, 1)
    A = np.array([[[0.0]], [[-1.0]]])
    zero = np.zeros((2, 1, 1))
    held_m = LpvssModel.from_dense(A, zero, zero, zero, nx=1, nu=1, ny=1,
                                   np=1, V=np.zeros(1), W=np.ones(1),
                                   anchor=Anchor.origin(1, 1))
    ln_f, ln_f_m = empty_lpv("ln(x1)", "x1")
    ln_p, ln_p_m = empty_lpv("x1", "x1", n_p=1)
    square = make_model(["-x1*x1 + u1"], ["x1"], 1, 1)
    cases = [
        ("ln-f", ln_f, ln_f_m, SchedulingMap((), ln_f.var_names), unit),
        ("ln-p", ln_p, ln_p_m,
         SchedulingMap((pe("ln(x1)", x1),), ln_p.var_names), unit),
        ("tanh-pole", held, held_m,
         SchedulingMap((pe("tanh(1/x1)", x1),), held.var_names),
         {"x1": (0.0, 0.0), "u1": (0.0, 0.0)}),
        ("overflow", square, *extract_factor(factorize(square)),
         {"x1": (-2e154, 2e154), "u1": (-1.0, 1.0)}),
    ]
    for source in ("bundled:unbalanced_disk", "network:0"):
        model = oracle_model(source)
        cases.append((source, model, *extract_factor(factorize(model)),
                      verify_box(source)))
    return cases


def verify_outcome(verify, model, m, sm, box):
    """The bits of a report's residuals and its worst points, or the
    type and message of what ``verify`` raises.  The map is built anew,
    so its numpy functions come from ``lpv.compile_array`` as it is now,
    patched or not."""
    try:
        rep = verify(model, m, SchedulingMap(sm.entries, sm.var_names),
                     200, box)
    except Exception as exc:
        return type(exc), str(exc)
    return (np.concatenate((rep.f_max, rep.h_max)).tobytes(),
            rep.f_worst + rep.h_worst)


def batched_verify(model, m, sm, samples, box):
    return verify_embedding(model, m, sm, samples=samples, box=box)


@pytest.mark.parametrize("case", failing_cases(), ids=lambda c: c[0])
def test_verify_fails_or_walks_as_the_reference_does(monkeypatch, case):
    # a failing entry raises the reference's EntryError, and a block
    # with a non-finite residual is walked, so the worst points are the
    # reference's; elsewhere the residuals agree within VERIFY_TOL (a
    # near-tie may move a worst point).  With the block path refused
    # everywhere, the whole report is the reference's, bit for bit
    _name, model, m, sm, box = case
    want = verify_outcome(reference_verify, model, m, sm, box)
    got = verify_outcome(batched_verify, model, m, sm, box)
    if isinstance(want[0], type) or not np.isfinite(
            np.frombuffer(want[0])).all():
        assert got == want
    else:
        assert np.abs(np.frombuffer(got[0])
                      - np.frombuffer(want[0])).max() <= VERIFY_TOL

    def refuse(*columns):
        raise EvalError("refused")
    monkeypatch.setattr(lpv, "compile_array", lambda e, names: refuse)
    monkeypatch.setattr(lpv, "compile_arrays", lambda es, names: refuse)
    assert verify_outcome(batched_verify, model, m, sm, box) == want


def test_verify_names_the_entry_and_the_first_failing_sample():
    # ln(x1) fails at every sample with x1 <= 0; the walk of the first
    # block names f1 and the first of them, as the range scan names its
    # grid point
    model, m = empty_lpv("ln(x1)", "x1")
    box = {"x1": (-1.0, 1.0), "u1": (-1.0, 1.0)}
    pts = -1.0 + 2.0 * np.random.default_rng(0).random((50, 2))
    x1, u1 = pts[np.argmax(pts[:, 0] <= 0.0)]
    with pytest.raises(EntryError) as ei:
        verify_embedding(model, m, SchedulingMap((), model.var_names),
                         samples=50, box=box)
    assert (ei.value.label, ei.value.index) == ("f1", 0)
    assert str(ei.value) == (f"f1: ln of non-positive value at sample "
                             f"x1={float(x1)!r}, u1={float(u1)!r}")
