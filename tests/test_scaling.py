"""Cost slopes of the pipeline's stages, gated by call counts.

Timing cannot gate anything on a shared host, but the number of Python
and C function calls a stage makes is deterministic, and it grows with
the same overheads that make a stage super-linear.  Each stage runs on
chains of 10, 20 and 40 pendulums (``bench/gen.py``'s ``chain``), under
a profile hook that counts ``call`` and ``c_call`` events, and the
slope ``log2(calls(40) / calls(20))`` of each gated stage must stay
near 1, the slope of cost linear in the model's size.  Slopes, not
counts, are asserted, so that Python versions agree.
"""

import math
import sys

import pytest

from lpvembed.factorize import factorize
from lpvembed.lpv import (
    default_box, estimate_range, extract_factor, verify_embedding,
)
from lpvembed.modelfile import load_artifact, load_model_file, save_artifact

from conftest import bench_gen

SIZES = (10, 20, 40)
RANGE_GRID = 101
# the most a gated stage's count may grow per doubling of the chain,
# as a power of 2: linear cost and a margin of 0.15
MAX_SLOPE = 1.15
# verify's slope is measured and printed, not asserted: its per-block
# maps still grow with nx^2 (ROADMAP.md's direction 13 removes that)
GATED = ("load_model_file", "factorize", "extract_factor", "estimate_range",
         "save_artifact", "load_artifact")


def _calls(fn, *args):
    """``fn(*args)``'s result and the calls it made, Python and C."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(hook)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, count


def _stage_calls(tmp_path, n):
    """Each stage's call count on the chain of ``n`` pendulums."""
    case = bench_gen().chain(1, 0, n)
    path = tmp_path / f"{case.name}.nlss"
    path.write_text(case.text)
    calls = {}
    doc, calls["load_model_file"] = _calls(load_model_file, str(path))
    model = doc.model
    box = {**default_box(model), **(doc.box or {})}
    fs, calls["factorize"] = _calls(factorize, model, doc.anchor)
    (m, sm), calls["extract_factor"] = _calls(extract_factor, fs)
    m.range_box, calls["estimate_range"] = _calls(estimate_range, sm, box,
                                                  RANGE_GRID)
    _, calls["verify_embedding"] = _calls(verify_embedding, model, m, sm,
                                          1000, box)
    artifact = str(tmp_path / f"{case.name}.json")
    # without the verify report: its worst points hold a full (x, u)
    # sample per state, nx * (nx + nu) numbers, which the artifact-bytes
    # row of ROADMAP.md's direction 14 is to gate with the report's redesign
    _, calls["save_artifact"] = _calls(save_artifact, artifact, m, sm,
                                       {"name": model.name})
    _, calls["load_artifact"] = _calls(load_artifact, artifact)
    return calls


@pytest.fixture(scope="module")
def slopes(tmp_path_factory):
    """Each stage's slope from chain 20 to chain 40; both doublings'
    slopes are printed (``pytest -s``)."""
    counts = [_stage_calls(tmp_path_factory.mktemp(f"chain{n}"), n)
              for n in SIZES]
    steps = [{stage: math.log2(b[stage] / a[stage]) for stage in a}
             for a, b in zip(counts, counts[1:])]
    for stage in steps[0]:
        print(f"{stage}: call-count slopes",
              " ".join(f"{s[stage]:.3f}" for s in steps))
    return steps[-1]


@pytest.mark.parametrize("stage", GATED)
def test_stage_cost_grows_about_linearly_with_the_chain(slopes, stage):
    assert slopes[stage] <= MAX_SLOPE, slopes
