import numpy as np
import pytest

from lpvembed.models import load_bundled


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
        return np.array([[e.eval(bindings) for e in row]
                         for row in block.entries])
    return at
