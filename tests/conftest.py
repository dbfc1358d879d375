import math

import numpy as np
import pytest

from lpvembed.expr import FUNCTIONS, Add, Call, Const, Div, Mul, Pow, Var
from lpvembed.models import load_bundled


def tree_eval(e, bindings):
    """``e`` at ``bindings`` by walking its tree: the independent reference
    for the library's compiled code.  Sums start from 0.0 and products
    from 1.0, powers are ``math.pow`` and functions :data:`FUNCTIONS`; a
    deferred integral runs its own ``at``."""
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
        return FUNCTIONS[e.fn](tree_eval(e.arg, bindings))
    return e.at(*(bindings[a] for a in e.arg_names))


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
