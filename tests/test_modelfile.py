"""Model file grammar, artifact serialization, and round-trip fidelity."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from lpvembed.cli import main
from lpvembed.expr import to_string
from lpvembed.factorize import DeferredIntegral, factorize
from lpvembed.lpv import estimate_range, extract_factor, verify_embedding
from lpvembed.modelfile import (
    ModelFileError, load_artifact, load_model_file, save_artifact,
    artifact_dict,
)

GOOD = """\
# a stirred pendulum
format_version 1
nx 2
nu 1
ny 1
time continuous

const k 2.5
const w k/2   # constants may use earlier constants

f1 = x2
f2 = -k*sin(x1) - w*x2 + u1
h1 = x1

anchor x1 0.5
box x1 -pi pi
box u1 -2 2
"""


def write(tmp_path, text, name="m.nlss"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ model files

def test_load_good_file(tmp_path):
    doc = load_model_file(write(tmp_path, GOOD))
    m = doc.model
    assert (m.nx, m.nu, m.ny) == (2, 1, 1)
    assert m.sample_time == 0.0
    assert m.name == "m"
    assert m.constants == {"k": 2.5, "w": 1.25}
    assert to_string(m.f[1]) == "-2.5*sin(x1) - 1.25*x2 + u1"
    assert doc.anchor.x_bar == (0.5, 0.0)      # unmentioned entries default 0
    assert doc.anchor.u_bar == (0.0,)
    assert doc.box["x1"] == (-math.pi, math.pi)
    assert doc.box["u1"] == (-2.0, 2.0)


def test_the_variable_names_are_built_once_per_file(tmp_path, monkeypatch):
    from lpvembed import modelfile
    calls = []

    def counted(nx):
        calls.append(nx)
        return state_names(nx)
    state_names = modelfile.state_names
    monkeypatch.setattr(modelfile, "state_names", counted)
    eqs = "".join(f"f{i} = -x{i} + u1\n" for i in range(1, 20))
    doc = load_model_file(write(tmp_path, "format_version 1\nnx 19\nnu 1\n"
                                "ny 1\n" + eqs + "h1 = x1\nbox x1 -1 1\n"))
    assert doc.model.nx == 19 and doc.box == {"x1": (-1.0, 1.0)}
    assert len(calls) <= 1


def test_discrete_time_declarations(tmp_path):
    base = "format_version 1\nnx 1\nnu 1\nny 1\n{}\nf1 = 0.5*x1 + u1\nh1 = x1\n"
    doc = load_model_file(write(tmp_path, base.format("time discrete 0.25")))
    assert doc.model.sample_time == 0.25
    doc = load_model_file(write(tmp_path, base.format("time discrete"),
                                name="m2.nlss"))
    assert doc.model.sample_time == -1.0


BAD_CASES = [
    ("nx 1\nnu 1\nny 1\ntime continuous\nf1 = x1\nh1 = x1\n",
     "format_version"),                       # missing version header
    ("format_version 2\nnx 1\n", "format_version"),
    ("format_version 1\nnx 1\nnx 2\nnu 1\nny 1\ntime continuous\n"
     "f1 = x1\nh1 = x1\n", "duplicate"),
    ("format_version 1\nnx 0\nnu 1\nny 1\ntime continuous\nh1 = 0\n", "nx"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "f1 = x1 ++ u1\nh1 = x1\n", "f1"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "f2 = x1\nh1 = x1\n", "f2"),             # index out of range
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "f1 = x1\nf1 = 2*x1\nh1 = x1\n", "f1"),  # duplicate equation
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\nh1 = x1\n", "f1"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "const sin 3\nf1 = x1\nh1 = x1\n", "sin"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "f1 = x1\nh1 = x1\nbox x1 2 1\n",
     "m.nlss:8: invalid box for x1: [2.0, 1.0]"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "f1 = x1\nh1 = x1\nbox x1 -1e309 1\n",
     "m.nlss:8: invalid box for x1: [-inf, 1.0]"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "f1 = x1\nh1 = x1\nbox x1 -1e308 1e308\n", "box for x1: width"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime discrete -3\n"
     "f1 = x1\nh1 = x1\n", "discrete"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime discrete 1e309\n"
     "f1 = x1\nh1 = x1\n", ":5: time: discrete sample time must be finite"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "orbit x1\nf1 = x1\nh1 = x1\n", "orbit"),
    ("format_version 1\nf1 = x1\n", "declared before"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "f1 = x1\nh1 = x1\nbox x1 -1 1\nbox x1 -2 2\n",
     "m.nlss:9: duplicate box for x1"),
    ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
     "f1 = x1\nh1 = x1\nanchor x1 1\nanchor x1 0\n",
     "m.nlss:9: duplicate anchor for x1"),
]


@pytest.mark.parametrize("text,needle", BAD_CASES)
def test_bad_files_are_rejected_with_context(tmp_path, text, needle):
    with pytest.raises(ModelFileError) as ei:
        load_model_file(write(tmp_path, text))
    assert needle in str(ei.value)


def test_error_reports_line_number(tmp_path):
    text = ("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
            "f1 = x1 + )\nh1 = x1\n")
    with pytest.raises(ModelFileError) as ei:
        load_model_file(write(tmp_path, text))
    assert ":6:" in str(ei.value)


def test_missing_file():
    with pytest.raises(ModelFileError):
        load_model_file("/nonexistent/path/model.nlss")


def test_bundled_files_parse_to_canonical_strings(disk_doc):
    m = disk_doc.model
    assert [to_string(e) for e in m.f] == [
        "x2",
        "130.9636363636364*sin(x1) - 1.6747613465081226*x2 + "
        "25.64059621503936*u1"]
    assert [to_string(e) for e in m.h] == ["x1"]


# -------------------------------------------------------------------- artifacts

def make_artifact(doc, tmp_path, name="a.json", with_range=True):
    fs = factorize(doc.model)
    m, sm = extract_factor(fs)
    if with_range and sm.np:
        m.range_box = estimate_range(sm, doc.box, grid_per_dim=501)
    rep = verify_embedding(doc.model, m, sm, samples=200, box=doc.box, seed=4)
    path = str(tmp_path / name)
    save_artifact(path, m, sm, {"name": doc.model.name,
                                "report": {"verify": rep.to_dict()}})
    return m, sm, rep, path


def test_artifact_roundtrip_disk(tmp_path, disk_doc):
    m, sm, rep, path = make_artifact(disk_doc, tmp_path)
    m2, sm2, doc = load_artifact(path)
    assert doc["format_version"] == 2
    assert doc["kind"] == "lpv_model"
    assert (m2.nx, m2.nu, m2.ny, m2.np) == (m.nx, m.nu, m.ny, m.np)
    assert np.array_equal(m2.A, m.A)
    assert np.array_equal(m2.B, m.B)
    assert np.array_equal(m2.C, m.C)
    assert np.array_equal(m2.D, m.D)
    assert np.array_equal(m2.V, m.V)
    assert m2.anchor.x_bar == m.anchor.x_bar
    assert sm2.entry_strings() == sm.entry_strings()
    assert m2.range_box.raw == m.range_box.raw
    assert m2.range_box.reported == m.range_box.reported
    assert m2.range_box.box == {"x1": (-2 * math.pi, 2 * math.pi),
                                "x2": (-10.0, 10.0), "u1": (-5.0, 5.0)}


def test_reloaded_artifact_reverifies_identically(tmp_path, disk_doc):
    m, sm, rep, path = make_artifact(disk_doc, tmp_path)
    m2, sm2, doc = load_artifact(path)
    rep2 = verify_embedding(disk_doc.model, m2, sm2, samples=200,
                            box=disk_doc.box, seed=4)
    assert np.array_equal(rep2.f_max, rep.f_max)
    assert np.array_equal(rep2.h_max, rep.h_max)
    stored = doc["report"]["verify"]
    assert stored["f_max"] == list(rep2.f_max)
    assert stored["max_residual"] == rep2.max_residual


def test_deferred_entries_serialize_structurally(tmp_path, tanh_doc):
    m, sm, rep, path = make_artifact(tanh_doc, tmp_path)
    raw = json.loads(open(path).read())
    entry = raw["scheduling"][0]
    assert entry["kind"] == "integral01"
    assert "tanh(lam*x1)" in entry["integrand"]
    assert entry["abs_tol"] == 1e-10

    m2, sm2, _doc = load_artifact(path)
    assert isinstance(sm2.entries[0], DeferredIntegral)
    for x in (-3.0, 0.5, 2.0):
        assert sm2.evaluate([x], [0.0])[0] == sm.evaluate([x], [0.0])[0]


def test_artifact_dict_carries_footprints(disk_doc, coeff_pos):
    fs = factorize(disk_doc.model)
    m, sm = extract_factor(fs)
    d = artifact_dict(m, sm, {})
    assert d["footprints"] == [["x1"]]
    assert d["np"] == 1
    family = d["matrices"]["A"]
    assert family["c"][coeff_pos(family, 1, 1, 0)] == 130.9636363636364
    assert d["generator"].startswith("lpvembed ")


def test_artifact_rejects_corrupt_documents(tmp_path, disk_doc):
    _m, _sm, _rep, path = make_artifact(disk_doc, tmp_path)
    good = json.loads(open(path).read())

    for mutate, needle in [
        (lambda d: d.update(kind="other"), "artifact"),
        (lambda d: d.update(format_version=99), "format_version"),
        (lambda d: d.update(np=3), "scheduling"),
        (lambda d: d.pop("matrices"), "matrices"),
        # json.dump's default writes this as the non-standard Infinity
        (lambda d: d["matrices"]["B"]["c"].__setitem__(0, float("inf")),
         "B[0, 1, 0] = inf is not finite"),
    ]:
        doc = json.loads(json.dumps(good))
        mutate(doc)
        bad_path = str(tmp_path / "bad.json")
        with open(bad_path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ModelFileError) as ei:
            load_artifact(bad_path)
        assert needle in str(ei.value)


# version 2 families of the disk artifact: A holds (0, 0, 1), (0, 1, 1)
# and (1, 1, 0), B (0, 1, 0), C (0, 0, 0); D is empty
def _set(family, field, pos, value):
    return lambda d: d["matrices"][family][field].__setitem__(pos, value)


def _swap_first_two(d):
    a = d["matrices"]["A"]
    for field in "kijc":
        a[field][0], a[field][1] = a[field][1], a[field][0]


def _repeat_first(d):
    a = d["matrices"]["A"]
    for field in "kijc":
        a[field][1] = a[field][0]


ARTIFACT_BAD_CASES = [
    (_set("A", "i", 0, 2), "A: index i outside 0..1"),
    (_set("A", "k", 2, -1), "A: index k outside 0..1"),
    (_set("D", "shape", 2, 2), "D has shape (2, 1, 2), expected (2, 1, 1)"),
    (lambda d: d["matrices"]["C"]["shape"].pop(), "family C: shape needs 3"),
    (_repeat_first, "A: entries must be unique and in row-major"),
    (_swap_first_two, "A: entries must be unique and in row-major"),
    (lambda d: d["matrices"]["A"]["c"].pop(), "A: k, i, j and c need equal"),
    (lambda d: d["matrices"]["B"]["j"].append(0),
     "B: k, i, j and c need equal"),
    (_set("A", "j", 0, 1.0), "family A: j must be a list of integers"),
    (_set("A", "k", 0, "0"), "family A: k must be a list of integers"),
    (_set("A", "i", 0, True), "family A: i must be a list of integers"),
    (_set("A", "c", 0, float("nan")), "A[0, 0, 1] = nan is not finite"),
    (_set("C", "c", 0, float("-inf")), "C[0, 0, 0] = -inf is not finite"),
    (_set("A", "c", 0, "1.0"), "family A: c must be a list of numbers"),
    (_set("A", "c", 0, 0.0), "A[0, 0, 1] = 0.0 is stored"),
    (lambda d: d["matrices"]["A"].pop("k"), "family A: missing 'k'"),
    (lambda d: d["matrices"].update(A=[]), "family A:"),
]


@pytest.mark.parametrize("mutate,needle", ARTIFACT_BAD_CASES)
def test_corrupt_coefficient_families_exit_2(tmp_path, disk_doc, capsys,
                                             mutate, needle):
    _m, _sm, _rep, path = make_artifact(disk_doc, tmp_path)
    doc = json.loads(open(path).read())
    mutate(doc)
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ModelFileError, match="^" + re.escape(bad_path)):
        load_artifact(bad_path)
    assert main(["info", bad_path]) == 2
    assert needle in capsys.readouterr().err


def _edit(*keys, value):
    """Set the field at ``keys`` to ``value`` and return the document."""
    def edit(d):
        target = d
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        return d
    return edit


def _drop(*keys):
    def drop(d):
        target = d
        for k in keys[:-1]:
            target = target[k]
        del target[keys[-1]]
        return d
    return drop


# whole-document and field mutations of the disk artifact (np = 1); each
# returns the document to write
ARTIFACT_BAD_FIELD_CASES = [
    (lambda d: [d], "not an LPV model artifact"),
    (_edit("scheduling", value=5), "scheduling must be a list"),
    (_edit("scheduling", value="sinc(x1)"), "scheduling must be a list"),
    (_edit("range_box", "raw", value=5),
     "range_box: raw must list one interval per scheduling entry (1)"),
    (_drop("range_box", "grid_per_dim"), "range_box: missing 'grid_per_dim'"),
    (_edit("range_box", "reported", value=[]),
     "range_box: reported must list one interval per scheduling entry (1)"),
    (_edit("range_box", "box", "x1", value=[2.0, 1.0]),
     "range_box: invalid box for x1: [2.0, 1.0]"),
    (_edit("range_box", "box", "x1", value=["nan", 1.0]),
     "range_box: invalid box for x1: [nan, 1.0]"),
    (_edit("range_box", "box", "x1", value=[-1e308, 1e308]),
     "range_box: invalid box for x1: width"),
    (_edit("range_box", "box", "x1", value=[1.0]),
     "range_box: not enough values to unpack (expected 2, got 1)"),
    (_edit("range_box", "raw", value=[[1.0, -1.0]]),
     "range_box: invalid raw interval for p1: [1.0, -1.0]"),
    (_edit("range_box", "raw", value=[["-inf", 1.0]]),
     "range_box: invalid raw interval for p1: [-inf, 1.0]"),
    (_edit("range_box", "reported", value=[["nan", "nan"]]),
     "range_box: invalid reported interval for p1: [nan, nan]"),
    (_edit("range_box", "reported", value=[[1.0, -1.0]]),
     "range_box: invalid reported interval for p1: [1.0, -1.0]"),
    (_edit("anchor", "x", value=[0.0]),
     "anchor has dimensions (1, 1), model needs (2, 1)"),
    (_edit("anchor", "u", value=[0.0, 0.0]),
     "anchor has dimensions (2, 2), model needs (2, 1)"),
    # json writes and reads these as the non-standard NaN and Infinity
    (_edit("anchor", "x", value=[float("nan"), 0.0]),
     "anchor entries must be finite"),
    (_edit("anchor", "u", value=[float("inf")]),
     "anchor entries must be finite"),
    (_edit("sample_time", value=-5.0),
     "sample_time must be 0 (continuous), > 0, or -1"),
    (_edit("sample_time", value=float("nan")),
     "sample_time must be finite, got nan"),
    # 1e400 is inf, in Python and in json alike
    (_edit("sample_time", value=1e400),
     "sample_time must be finite, got inf"),
]


@pytest.mark.parametrize("mutate,needle", ARTIFACT_BAD_FIELD_CASES)
def test_corrupt_artifact_fields_exit_2(tmp_path, disk_doc, capsys, mutate,
                                       needle):
    _m, _sm, _rep, path = make_artifact(disk_doc, tmp_path)
    doc = mutate(json.loads(open(path).read()))
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ModelFileError, match="^" + re.escape(bad_path)):
        load_artifact(bad_path)
    for argv in (["info", bad_path], ["range", bad_path],
                 ["simulate", bad_path, "-o", str(tmp_path / "s.csv"),
                  "--t-end", "0.1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err


# every deferred entry integrates with quadrature's defaults; an
# integral01 object that records other settings is refused, not ignored
@pytest.mark.parametrize("key,value", [
    ("abs_tol", 1e-6), ("rel_tol", 0.0), ("max_subdivisions", 50),
    ("max_subdivisions", "2000"),
])
def test_deferred_entry_with_other_quadrature_settings_exits_2(
        tmp_path, tanh_doc, capsys, key, value):
    _m, _sm, _rep, path = make_artifact(tanh_doc, tmp_path)
    doc = json.loads(open(path).read())
    assert doc["scheduling"][0]["kind"] == "integral01"
    doc["scheduling"][0][key] = value
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ModelFileError) as ei:
        load_artifact(bad_path)
    assert str(ei.value).startswith(f"{bad_path}: scheduling entry p1: "
                                    f"{key} {value!r} is not ")
    assert main(["info", bad_path]) == 2
    assert "Traceback" not in capsys.readouterr().err


V1_FIXTURE = Path(__file__).parent / "data" / "unbalanced_disk_v1.json"


def test_version_1_artifact_survives_a_version_2_round_trip(tmp_path):
    # the fixture is the bundled disk as the version 1 writer saved it,
    # with every family a dense nested list
    v1 = json.loads(V1_FIXTURE.read_text())
    assert v1["format_version"] == 1
    m1, sm1, _doc = load_artifact(str(V1_FIXTURE))
    path = str(tmp_path / "v2.json")
    save_artifact(path, m1, sm1, {"name": v1["name"]})
    m2, sm2, doc2 = load_artifact(path)
    assert doc2["format_version"] == 2
    for m, sm in ((m1, sm1), (m2, sm2)):
        for t in "ABCD":
            want = np.array(v1["matrices"][t], dtype=float)
            assert getattr(m, t).tobytes() == want.tobytes(), t
        assert m.V.tobytes() == np.array(v1["offsets"]["V"]).tobytes()
        assert m.W.tobytes() == np.array(v1["offsets"]["W"]).tobytes()
        assert sm.entry_strings() == v1["scheduling"]
        assert m.anchor.x_bar == tuple(v1["anchor"]["x"])
        assert m.anchor.u_bar == tuple(v1["anchor"]["u"])
        assert m.range_box.to_dict() == v1["range_box"]
    assert doc2["matrices"]["A"] == {
        "shape": [2, 2, 2], "k": [0, 0, 1], "i": [0, 1, 1], "j": [1, 1, 0],
        "c": [1.0, -1.6747613465081226, 130.9636363636364]}
    assert doc2["matrices"]["D"] == {
        "shape": [2, 1, 1], "k": [], "i": [], "j": [], "c": []}
    assert doc2["footprints"] == v1["footprints"]


def test_artifact_not_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("not json at all {")
    with pytest.raises(ModelFileError):
        load_artifact(str(path))


def test_failed_save_leaves_no_partial_artifact(tmp_path, disk_doc,
                                                coeff_pos):
    m, sm, _rep, path = make_artifact(disk_doc, tmp_path)
    before = open(path).read()
    # edited in place, after the model was checked
    m.coeffs["A"].c[coeff_pos(m.coeffs["A"], 0, 1, 1)] = np.nan
    with pytest.raises(ValueError):
        save_artifact(path, m, sm)
    assert open(path).read() == before
    assert sorted(os.listdir(tmp_path)) == ["a.json"]
