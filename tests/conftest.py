import functools
import importlib.util
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lpvembed.expr import (
    FUNCTIONS, Add, Call, Const, Div, EntryError, EvalError, Mul, Pow, Var,
    call_floats, compile_vector,
)
from lpvembed.lpv import VerifyReport
from lpvembed.modelfile import load_model_file
from lpvembed.models import load_bundled

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


@functools.cache
def bench_gen():
    """The benchmark's model generators, ``bench/gen.py``."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # for its dataclasses
    spec.loader.exec_module(gen)
    return gen


@functools.cache
def network_doc(index, seed=1):
    """The benchmark's network case ``index`` of ``seed``, loaded from a
    model file that is gone afterwards: 8 states, 10 deferred entries in
    analytic mode."""
    case = bench_gen().network(seed, index)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{case.name}.nlss"
        path.write_text(case.text)
        return load_model_file(str(path))


def tree_eval(e, bindings):
    """``e`` at ``bindings`` by walking its tree: the independent reference
    for the library's compiled code.  Sums start from 0.0 and products
    from 1.0, powers are ``math.pow`` and functions the ``scalar`` code
    of their :data:`FUNCTIONS` rows; a deferred integral runs its own
    ``at``."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(bindings[e.name])
    if isinstance(e, Add):
        acc = 0.0
        for t in e.terms:
            acc += tree_eval(t, bindings)
        return acc
    if isinstance(e, Mul):
        acc = 1.0
        for t in e.terms:
            acc *= tree_eval(t, bindings)
        return acc
    if isinstance(e, Div):
        return tree_eval(e.num, bindings) / tree_eval(e.den, bindings)
    if isinstance(e, Pow):
        return math.pow(tree_eval(e.base, bindings),
                        tree_eval(e.exponent, bindings))
    if isinstance(e, Call):
        return FUNCTIONS[e.fn].scalar(tree_eval(e.arg, bindings))
    return e.at(*(bindings[a] for a in e.arg_names))


def reference_verify(model, m, sm, samples, box, seed=0):
    """``verify_embedding`` sample by sample, as it was before it ran in
    numpy blocks: the same sampler, then at each point p by
    ``SchedulingMap.evaluate``, f and h by their compiled vectors on
    floats, the maps by ``LpvssModel.affine_maps``.  The independent
    reference for the blocks; it raises the EntryError the old loop
    raised, with the sample where it did: ``f1: ln of non-positive value
    at sample x1=-0.5, u1=0.25``."""
    names = model.var_names
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])
    pts = lo + (hi - lo) * np.random.default_rng(seed).random(
        (samples, len(names)))
    f = compile_vector(model.f, names, "f")
    h = compile_vector(model.h, names, "h")
    state_map, output_map = m.affine_maps()
    res = np.empty((samples, model.nx + model.ny))
    with np.errstate(all="ignore"):
        for n, row in enumerate(pts):
            x, u = row[:model.nx], row[model.nx:]
            try:
                p = sm.evaluate(x, u)
                want = call_floats(f, x, u) + call_floats(h, x, u)
            except EntryError as exc:
                at = ", ".join(f"{n}={float(v)!r}" for n, v in zip(names, row))
                raise EntryError(exc.label, exc.index, EvalError(
                    f"{exc.cause} at sample {at}")) from exc
            res[n] = np.abs(np.concatenate((state_map(p, x, u),
                                            output_map(p, x, u))) - want)
    bad = ~np.isfinite(res)
    at = np.where(bad.any(axis=0), bad.argmax(axis=0), res.argmax(axis=0))
    worst = res[at, np.arange(res.shape[1])]
    where = [(tuple(pts[k, :model.nx]), tuple(pts[k, model.nx:]))
             for k in at]
    return VerifyReport(worst[:model.nx], worst[model.nx:],
                        where[:model.nx], where[model.nx:], samples, seed,
                        dict(box))


@pytest.fixture(scope="session")
def disk_doc():
    return load_bundled("unbalanced_disk")


@pytest.fixture(scope="session")
def tanh_doc():
    return load_bundled("tanh_example")


@pytest.fixture(scope="session")
def coeff_pos():
    """``find(family, k, i, j)``: the position of the stored coefficient at
    [k, i, j] in a family's triplets, for a model's ``CoeffFamily`` or an
    artifact's JSON family alike."""
    def find(family, k, i, j):
        if isinstance(family, dict):
            keys = zip(family["k"], family["i"], family["j"])
        else:
            keys = zip(family.k, family.i, family.j)
        return list(keys).index((k, i, j))
    return find


@pytest.fixture(scope="session")
def block_at():
    """``at(block, bindings)``: a factor matrix of a ``FactorizedSystem``
    as a dense array, each entry evaluated by walking its tree."""
    def at(block, bindings):
        return np.array([[tree_eval(e, bindings) for e in row]
                         for row in block.entries])
    return at
