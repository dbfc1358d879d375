"""Command-line interface: verbs, exit codes, and file outputs."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lpvembed
from lpvembed import quadrature
from lpvembed.cli import main
from lpvembed.factorize import MatrixFunction
from lpvembed.lpv import CoeffFamily, LpvssModel

DISK_SCENARIO = ["--input", "2*sin(0.2*pi*t)", "--x0", "0,0", "--t-end", "5"]


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture()
def no_factorize(monkeypatch):
    """The CLI's factorize raises, so a command must stop before it."""
    def refuse(*args, **kwargs):
        raise AssertionError("factorized")
    monkeypatch.setattr(lpvembed.cli, "factorize", refuse)


@pytest.fixture()
def disk_artifact(tmp_path):
    path = str(tmp_path / "disk.json")
    assert main(["convert", "unbalanced_disk", "-o", path]) == 0
    return path


# --------------------------------------------------------------------- convert

def test_convert_reports_and_writes(tmp_path, capsys):
    out = str(tmp_path / "disk.json")
    code, text, _ = run(["convert", "unbalanced_disk", "-o", out], capsys)
    assert code == 0
    assert "np = 1" in text
    assert "p1 = sinc(x1)" in text
    assert "max residual" in text
    doc = json.load(open(out))
    assert doc["kind"] == "lpv_model"
    assert doc["extraction"] == "factor"
    assert doc["range_box"]["reported"][0][1] == pytest.approx(1.005)


def test_convert_element_numeric(tmp_path, capsys):
    out = str(tmp_path / "disk_en.json")
    code, text, _ = run(["convert", "unbalanced_disk", "--mode", "numeric",
                         "--extract", "element", "-o", out], capsys)
    assert code == 0
    assert "integral01" in text
    doc = json.load(open(out))
    assert doc["integration_mode"] == "numeric"
    assert doc["scheduling"][0]["kind"] == "integral01"


def test_convert_with_anchor_flag(tmp_path, capsys):
    out = str(tmp_path / "a.json")
    code, text, _ = run(["convert", "unbalanced_disk", "--anchor",
                         "x1=0.7", "-o", out], capsys)
    assert code == 0
    doc = json.load(open(out))
    assert doc["anchor"]["x"] == [0.7, 0.0]


def test_convert_threshold_breach_exits_4(tmp_path, capsys):
    out = str(tmp_path / "disk.json")
    code, text, _ = run(["convert", "unbalanced_disk", "-o", out,
                         "--threshold", "1e-20"], capsys)
    assert code == 4
    assert "ABOVE THRESHOLD" in text


@pytest.mark.parametrize("flags,message", [
    (["--samples", "0"], "samples must be at least 1, got 0"),
    (["--samples", "-3"], "samples must be at least 1, got -3"),
    # the disk takes 6 floats a sample: points (x, u) and residuals (f, h)
    (["--samples", "100000000000"],
     "samples = 100000000000 needs 600000000000 floats, over the "
     "verification budget of 10000000"),
    (["--grid", "1"], "--grid must be at least 2, got 1"),
    (["--threshold", "nan"],
     "--threshold must be non-negative and finite, got nan"),
    (["--threshold", "inf"],
     "--threshold must be non-negative and finite, got inf"),
    (["--threshold", "-1"],
     "--threshold must be non-negative and finite, got -1.0"),
    (["--seed", "-1"], "--seed must be non-negative, got -1"),
], ids=["samples-0", "samples-negative", "samples-over-budget", "grid-1",
        "threshold-nan", "threshold-inf", "threshold-negative",
        "seed-negative"])
def test_convert_bad_settings_exit_2(tmp_path, capsys, no_factorize, flags,
                                     message):
    out = tmp_path / "disk.json"
    code, _, err = run(["convert", "unbalanced_disk", "-o", str(out),
                        *flags], capsys)
    assert (code, err) == (2, f"error: {message}\n")
    assert not out.exists()


def test_convert_missing_model_exits_2(tmp_path, capsys):
    code, _, err = run(["convert", "no_such_model", "-o",
                        str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "no such file" in err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_convert_to_an_unwritable_path_exits_2(tmp_path, capsys, where):
    out = tmp_path / "no_dir" / "x.json"
    message = "No such file or directory"
    if where == "directory":
        out = tmp_path / "x.json"
        out.mkdir()
        message = "Is a directory"
    code, _, err = run(["convert", "unbalanced_disk", "-o", str(out),
                        "--grid", "101"], capsys)
    assert (code, err) == (2, f"error: {out}: cannot write: {message}\n")
    assert not any(p.name.endswith(".tmp") for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_simulate_to_an_unwritable_path_exits_2(tmp_path, capsys, suffix):
    out = tmp_path / "no_dir" / f"run{suffix}"
    code, _, err = run(["simulate", "unbalanced_disk", "--t-end", "0.1",
                        "-o", str(out)], capsys)
    assert (code, err) == (
        2, f"error: {out}: cannot write: No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["missing-dir", "directory",
                                   "file-as-dir"])
def test_an_unwritable_output_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, no_factorize, where):
    out = tmp_path / "no_dir" / "out.json"
    message = "No such file or directory"
    if where == "directory":
        out = tmp_path / "out.json"
        out.mkdir()
        message = "Is a directory"
    elif where == "file-as-dir":
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "out.json"
        message = "Not a directory"

    def refuse(*args, **kwargs):
        raise AssertionError("simulated")
    monkeypatch.setattr(lpvembed.cli, "simulate_nl", refuse)
    monkeypatch.setattr(lpvembed.cli, "simulate_lpv_self_scheduled", refuse)
    for argv in (["convert", "unbalanced_disk", "--grid", "101"],
                 ["simulate", "unbalanced_disk", "--t-end", "0.1"]):
        code, stdout, err = run(argv + ["-o", str(out)], capsys)
        assert (code, stdout, err) == (
            2, "", f"error: {out}: cannot write: {message}\n")


def test_convert_unparsable_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.nlss"
    bad.write_text("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
                   "f1 = x1 ++ u1\nh1 = x1\n")
    code, _, err = run(["convert", str(bad), "-o",
                        str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert ":6:" in err


def _model_file(tmp_path, f1, h1="x1", box=""):
    path = tmp_path / "m.nlss"
    path.write_text("format_version 1\nnx 1\nnu 1\nny 1\n"
                    f"time continuous\nf1 = {f1}\nh1 = {h1}\n{box}")
    return str(path)


def _nested_sin(depth):
    arg = "x1"
    for _ in range(depth):
        arg = f"x1 + 0.5*sin({arg})"
    return f"-x1 + 0.5*sin({arg})"


def test_convert_non_finite_folded_constant_exits_cleanly(tmp_path, capsys):
    # 1e200*1e200*0 folds to nan; the model is rejected at load time like
    # any other malformed model file
    path = _model_file(tmp_path, "-x1 + 1e200*1e200*0*x1 + u1")
    code, _, err = run(["convert", path, "-o", str(tmp_path / "x.json")],
                       capsys)
    assert code == 2
    assert "f1: constants fold to nan" in err
    assert "Traceback" not in err


def test_simulate_deeply_nested_model_compiles(tmp_path, capsys):
    # too many nested parentheses to write inline: deep nodes get locals
    path = _model_file(tmp_path, _nested_sin(90))
    code, text, err = run(["simulate", path, "-o", str(tmp_path / "s.csv"),
                           "--t-end", "0.05"], capsys)
    assert code == 0, err
    assert "wrote" in text


def test_convert_too_deeply_nested_model_exits_3(tmp_path, capsys):
    path = _model_file(tmp_path, _nested_sin(150))
    code, _, err = run(["convert", path, "-o", str(tmp_path / "x.json")],
                       capsys)
    assert code == 3
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_convert_offset_error_names_the_equation_and_anchor(tmp_path,
                                                          capsys):
    path = _model_file(tmp_path, "-x1 + u1", h1="1/x1")
    code, _, err = run(["convert", path, "-o", str(tmp_path / "x.json"),
                        "--grid", "11"], capsys)
    assert code == 3
    assert err == ("error: h1: float division by zero at the anchor "
                   "x1=0.0, u1=0.0\n")
    code, _, err = run(["convert", path, "-o", str(tmp_path / "x.json"),
                        "--grid", "11", "--anchor", "x1=0,u1=1"], capsys)
    assert err == ("error: h1: float division by zero at the anchor "
                   "x1=0.0, u1=1.0\n")


def test_range_domain_error_names_the_grid_point(tmp_path, capsys):
    # both entries are deferred integrals; 1/(lam*x1 + 2) hits 0 at x1 = -3
    path = _model_file(tmp_path, "-x1 + u1*ln(x1 + 2)")
    code, _, err = run(["range", path, "--box", "x1=-3:1,u1=-1:1",
                        "--grid", "11"], capsys)
    assert code == 3
    assert err == ("error: p1: float division by zero at grid point "
                   "x1=-3.0, u1=-1.0\n")


def test_convert_with_non_finite_residuals_exits_4(tmp_path, capsys):
    # -x1*x1 overflows on about a third of the box: inf - inf residuals
    path = _model_file(tmp_path, "-x1*x1 + u1",
                       box="box x1 -2e154 2e154\nbox u1 -1 1\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code, text, _ = run(["convert", path, "-o", str(tmp_path / "x.json"),
                             "--grid", "101"], capsys)
    assert code == 4
    assert "max residual nan" in text
    assert "ABOVE THRESHOLD" in text


def _reject_constant(name):
    raise ValueError(f"non-strict JSON token {name}")


def test_convert_with_non_finite_residuals_writes_strict_json(tmp_path,
                                                              capsys):
    path = _model_file(tmp_path, "-x1*x1 + u1",
                       box="box x1 -2e154 2e154\nbox u1 -1 1\n")
    out = str(tmp_path / "x.json")
    # the default filter shows a warning once per location; "always"
    # records every one, so none can hide behind an earlier run
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(["convert", path, "-o", out, "--grid", "101"],
                           capsys)
    assert code == 4
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err
    doc = json.loads(open(out).read(), parse_constant=_reject_constant)
    verify = doc["report"]["verify"]
    assert verify["max_residual"] == "nan"
    assert "nan" in verify["f_max"]
    code, text, _ = run(["info", out], capsys)
    assert code == 0
    assert "verified max residual nan over 1000 samples" in text


def test_convert_with_non_finite_coefficient_exits_3(tmp_path, capsys):
    # d/dx1 of 1e308*x1^3 carries 3e308 = inf into A
    path = _model_file(tmp_path, "-x1 + 1e308*x1^3 + u1")
    out = tmp_path / "x.json"
    code, _, err = run(["convert", path, "-o", str(out), "--grid", "101"],
                       capsys)
    assert code == 3
    assert "error: A[" in err and "is not finite" in err
    assert not out.exists()


def test_loading_a_non_finite_artifact_exits_2(tmp_path, disk_artifact,
                                               capsys, coeff_pos):
    doc = json.load(open(disk_artifact))
    family = doc["matrices"]["A"]
    family["c"][coeff_pos(family, 1, 1, 0)] = float("-inf")
    bad = str(tmp_path / "bad.json")
    json.dump(doc, open(bad, "w"))
    code, _, err = run(["info", bad], capsys)
    assert code == 2
    assert "A[1, 1, 0] = -inf is not finite" in err


def test_convert_with_non_finite_sample_time_exits_2(tmp_path, capsys):
    path = tmp_path / "m.nlss"
    path.write_text("format_version 1\nnx 1\nnu 1\nny 1\n"
                    "time discrete 1e309\nf1 = 0.5*x1 + u1\nh1 = x1\n")
    out = tmp_path / "x.json"
    code, _, err = run(["convert", str(path), "-o", str(out)], capsys)
    assert code == 2
    assert f"{path}:5: time: discrete sample time must be finite" in err
    assert not out.exists()


def test_box_whose_width_overflows_exits_cleanly(tmp_path, capsys):
    out = tmp_path / "x.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = _model_file(tmp_path, "-x1 + 0.1*sin(x1) + u1",
                           box="box x1 -1e308 1e308\n")
        code, _, err = run(["convert", path, "-o", str(out),
                            "--grid", "101"], capsys)
        assert code == 2
        assert "box for x1: width" in err
        assert not out.exists()
        path = _model_file(tmp_path, "-x1 + 0.1*sin(x1) + u1")
        code, _, err = run(["range", path, "--box", "x1=-1e308:1e308",
                            "--grid", "101"], capsys)
        assert code == 2
        assert "invalid box for x1: width" in err
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err


# one anchor or box declaration per case, as (kind, [(name, values)...],
# message); the last declaration is the bad one
DECLARATION_CASES = [
    ("anchor", [("zz", ["1"])], "anchor: unknown variable 'zz'"),
    ("box", [("q", ["1", "2"])], "box: unknown variable 'q'"),
    ("anchor", [("x1", ["0.1"]), ("x1", ["0.2"])], "duplicate anchor for x1"),
    ("box", [("x1", ["-1", "1"]), ("x1", ["-3", "3"])],
     "duplicate box for x1"),
    ("box", [("x1", ["2", "1"])], "invalid box for x1: [2.0, 1.0]"),
    ("box", [("x1", ["-1e309", "1"])], "invalid box for x1: [-inf, 1.0]"),
    ("box", [("x1", ["-1e308", "1e308"])],
     "invalid box for x1: width 1e+308 - (-1e+308) overflows"),
    ("anchor", [("x1", ["1e400"])], "anchor for x1 must be finite, got inf"),
    ("anchor", [("x1", ["1+"])],
     "bad value '1+': unexpected end of input (at position 2)"),
    ("box", [("u1", ["-1", "2*"])],
     "bad value '2*': unexpected end of input (at position 2)"),
    ("box", [("x1", ["1"])], "box needs exactly two bounds"),
    ("box", [("x1", ["1", "2", "3"])], "box needs exactly two bounds"),
]


@pytest.mark.parametrize("kind,decls,message", DECLARATION_CASES, ids=[
    "unknown-anchor", "unknown-box", "duplicate-anchor", "duplicate-box",
    "reversed-box", "infinite-box", "overflowing-box", "infinite-anchor",
    "bad-anchor-value", "bad-box-value", "one-bound", "three-bounds"])
def test_declaration_rules_are_shared_by_file_lines_and_flags(
        tmp_path, capsys, kind, decls, message):
    f1 = "-x1 + 0.1*sin(x1) + u1"
    lines = "".join(f"{kind} {n} {' '.join(v)}\n" for n, v in decls)
    path = _model_file(tmp_path, f1, box=lines)
    assert run(["range", path], capsys) == (
        2, "", f"error: {path}:{7 + len(decls)}: {message}\n")
    flag = ",".join(f"{n}={':'.join(v)}" for n, v in decls)
    path = _model_file(tmp_path, f1)
    artifact = str(tmp_path / "m.json")
    if kind == "anchor":
        runs = [["convert", path, "-o", artifact],
                ["range", path, "--box", "x1=-1:1"]]
    else:
        assert main(["convert", path, "-o", artifact, "--grid", "11"]) == 0
        capsys.readouterr()
        runs = [["range", path], ["range", artifact]]
    for argv in runs:
        assert run(argv + [f"--{kind}", flag], capsys) == (
            2, "", f"error: --{kind}: {message}\n"), argv


def test_convert_bad_anchor_name_exits_2(tmp_path, capsys):
    code, _, err = run(["convert", "unbalanced_disk", "--anchor", "q=1",
                        "-o", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "anchor" in err


def test_cli_verbs_never_build_dense_coefficients(tmp_path, capsys,
                                                  monkeypatch):
    # the dense views and matrices(p) are for inspection; convert,
    # simulate, compare, info and range work on the stored triplets and
    # the factor matrices' nonzeros alone
    def refuse(*args, **kwargs):
        raise AssertionError("dense coefficients built")
    monkeypatch.setattr(CoeffFamily, "dense", refuse)
    monkeypatch.setattr(LpvssModel, "matrices", refuse)
    monkeypatch.setattr(MatrixFunction, "entries", property(refuse))
    out = str(tmp_path / "disk.json")
    for argv in (["convert", "unbalanced_disk", "-o", out],
                 ["simulate", out, *DISK_SCENARIO, "-o",
                  str(tmp_path / "t.csv")],
                 ["compare", "unbalanced_disk", out, *DISK_SCENARIO],
                 ["info", out], ["range", out], ["range", "unbalanced_disk"]):
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)


# ----------------------------------------------------------------------- range

def test_range_on_model_with_declared_box(capsys):
    code, text, _ = run(["range", "unbalanced_disk"], capsys)
    assert code == 0
    assert "sinc(x1)" in text and "raw" in text


def test_range_on_artifact_with_box_override(disk_artifact, capsys):
    code, text, _ = run(["range", disk_artifact, "--box", "x1=-pi:pi",
                         "--grid", "2001"], capsys)
    assert code == 0
    assert "[0," in text.replace("[0.0,", "[0,") or "raw [" in text


def test_range_needs_a_box_somewhere(tmp_path, capsys):
    boxless = tmp_path / "b.nlss"
    boxless.write_text("format_version 1\nnx 1\nnu 1\nny 1\ntime continuous\n"
                       "f1 = sin(x1) + u1\nh1 = x1\n")
    code, _, err = run(["range", str(boxless)], capsys)
    assert code == 2
    assert "box" in err
    code, text, _ = run(["range", str(boxless), "--box", "x1=-2:2"], capsys)
    assert code == 0


def test_range_box_flag_overrides_the_box_one_variable_at_a_time(
        tmp_path, disk_artifact, capsys):
    # p1 = sinc(x1) needs x1 alone; a flag for x2 leaves its box as it is
    for target in ("unbalanced_disk", disk_artifact):
        plain = run(["range", target], capsys)
        assert plain[0] == 0
        assert run(["range", target, "--box", "x2=-1:1"], capsys) == plain
        assert run(["range", target, "--box", "x1=-1:1"], capsys) == (
            0, "  p1 = sinc(x1)\n       range raw [0.8415, 1]  reported "
               "[0.8373, 1.005]\n", "")
    # with no stored box the flag is the whole box, which misses x1
    doc = json.load(open(disk_artifact))
    doc["range_box"] = None
    boxless = tmp_path / "boxless.json"
    boxless.write_text(json.dumps(doc))
    assert run(["range", str(boxless), "--box", "x2=-1:1"], capsys) == (
        2, "", "error: no bounds for x1; pass --box\n")


def test_range_on_an_lti_artifact_has_nothing_to_range(tmp_path, capsys):
    # np = 0 stores no range box, and no entry needs a bound
    lti = str(tmp_path / "lti.json")
    assert run(["convert", _model_file(tmp_path, "-x1 + u1"), "-o", lti],
               capsys)[0] == 0
    assert run(["range", lti], capsys) == (0, "np = 0: nothing to range\n", "")


@pytest.mark.parametrize("target,flags,message", [
    ("artifact", ["--anchor", "x1=5"], "--anchor applies only to a model; an "
                                       "artifact keeps the anchor it was "
                                       "converted at"),
    ("artifact", ["--mode", "numeric"], "--mode applies only to a model; an "
                                        "artifact keeps the integration mode "
                                        "it was converted with"),
    ("artifact", ["--extract", "factor"], "--extract applies only to a model; "
                                          "an artifact keeps the extraction "
                                          "it was converted with"),
    ("unbalanced_disk", ["--grid", "1"], "--grid must be at least 2, got 1"),
], ids=["artifact-anchor", "artifact-mode", "artifact-extract", "grid-1"])
def test_range_bad_flags_exit_2(disk_artifact, capsys, no_factorize, target,
                                flags, message):
    target = disk_artifact if target == "artifact" else target
    assert run(["range", target, *flags], capsys) == (
        2, "", f"error: {message}\n")


# -------------------------------------------------------------------- simulate

def test_simulate_model_csv(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    code, text, _ = run(["simulate", "unbalanced_disk", *DISK_SCENARIO,
                         "-o", out], capsys)
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "# format_version: 1"
    assert lines[1] == "t,x1,x2,y1,u1"
    assert len(lines) == 2 + 501          # 5 s at 0.01 s output steps


def test_simulate_artifact_records_scheduling(tmp_path, disk_artifact, capsys):
    out = str(tmp_path / "t.csv")
    code, _, _ = run(["simulate", disk_artifact, *DISK_SCENARIO, "-o", out],
                     capsys)
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[1] == "t,x1,x2,y1,u1,p1"
    first = lines[2].split(",")
    assert float(first[-1]) == 1.0        # sinc(0) at the initial state


def test_simulate_json_output(tmp_path, capsys):
    out = str(tmp_path / "t.json")
    code, _, _ = run(["simulate", "unbalanced_disk", *DISK_SCENARIO,
                      "-o", out, "--output-dt", "0.5"], capsys)
    assert code == 0
    doc = json.load(open(out))
    assert doc["format_version"] == 1
    assert len(doc["t"]) == 11
    assert len(doc["x"][0]) == 2


def test_simulate_csv_input(tmp_path, capsys):
    table = tmp_path / "u.csv"
    table.write_text("t,u1\n0,0.5\n2,-0.5\n")
    out = str(tmp_path / "t.csv")
    code, _, _ = run(["simulate", "unbalanced_disk", "--input", str(table),
                      "--x0", "0,0", "--t-end", "4", "-o", out], capsys)
    assert code == 0
    lines = open(out).read().splitlines()
    u_col = [float(l.split(",")[4]) for l in lines[2:]]
    assert u_col[0] == 0.5 and u_col[-1] == -0.5


def test_simulate_bad_x0_exits_2(tmp_path, capsys):
    code, _, err = run(["simulate", "unbalanced_disk", "--x0", "1",
                        "--t-end", "1", "-o", str(tmp_path / "t.csv")], capsys)
    assert code == 2
    assert "--x0" in err


def test_simulate_non_finite_output_exits_3(tmp_path, capsys):
    path = _model_file(tmp_path, "-x1 + u1", h1="1e300*x1*x1")
    code, _, err = run(["simulate", path, "-o", str(tmp_path / "o.csv"),
                        "--t-end", "1", "--x0=1e10"], capsys)
    assert code == 3
    assert "non-finite output (t = 0.0)" in err


def test_simulate_non_finite_input_exits_3_at_its_time(tmp_path, capsys):
    # tanh(u1) is finite where u1 is inf, so only the input check stops
    # the model; the artifact's B(p)*u would make the derivative inf
    path = _model_file(tmp_path, "-x1 + tanh(u1)")
    artifact = str(tmp_path / "m.json")
    assert main(["convert", path, "-o", artifact, "--grid", "11"]) == 0
    capsys.readouterr()
    for target in (path, artifact):
        code, _, err = run(["simulate", target, "-o", str(tmp_path / "o.csv"),
                            "--t-end", "1", "--input", "1e308*(t+1)*10"],
                           capsys)
        assert (code, err) == (3, "error: non-finite input (t = 0.0)\n")


def test_simulate_division_by_zero_exits_3_without_a_warning(tmp_path,
                                                            capsys):
    # the state reaches f as numpy scalars, for which 1/x2 at x2 = 0 is
    # inf with a warning; the non-finite derivative is the error
    path = tmp_path / "m.nlss"
    path.write_text("format_version 1\nnx 2\nnu 1\nny 1\ntime continuous\n"
                    "f1 = -x1 + 1/x2\nf2 = -x2 + u1\nh1 = x1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(["simulate", str(path), "-o",
                            str(tmp_path / "o.csv"), "--t-end", "1"], capsys)
    assert code == 3
    assert err == "error: non-finite derivative (t = 0.0)\n"
    assert caught == []


def test_simulate_evaluation_errors_name_the_entry_and_time(tmp_path,
                                                            capsys):
    # x1 = -2.5 is outside the box: ln(x1 + 2) fails in f1 of the model
    # and in p2 of its artifact
    path = _model_file(tmp_path, "-x1 + u1*ln(x1 + 2)",
                       box="box x1 -1 1\nbox u1 -1 1\n")
    artifact = str(tmp_path / "m.json")
    assert main(["convert", path, "-o", artifact, "--grid", "11"]) == 0
    capsys.readouterr()
    for target, message in (
            (path, "model evaluation failed: f1: ln of non-positive value"),
            (artifact, "scheduling evaluation failed: p2: ln of "
                       "non-positive value")):
        code, _, err = run(["simulate", target, "-o", str(tmp_path / "o.csv"),
                            "--t-end", "1", "--x0=-2.5"], capsys)
        assert code == 3
        assert err == f"error: {message} (t = 0.0)\n"


@pytest.mark.parametrize("expr", ["1/t", "ln(t)"])
@pytest.mark.parametrize("discrete", [False, True], ids=["rk45", "discrete"])
def test_simulate_input_evaluation_error_exits_3(tmp_path, capsys, expr,
                                                 discrete):
    # a run samples the input at numpy grid times before it solves, where
    # 1/t would be inf with a warning
    target = "unbalanced_disk"
    if discrete:
        target = tmp_path / "d.nlss"
        target.write_text("format_version 1\nnx 1\nnu 1\nny 1\n"
                          "time discrete 1\nf1 = 0.5*x1 + u1\nh1 = x1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(["simulate", str(target), "-o",
                            str(tmp_path / "s.csv"), "--t-end", "2",
                            "--input", expr], capsys)
    assert code == 3
    assert err.startswith("error: input evaluation failed: ")
    assert err.endswith("(t = 0.0)\n")
    assert "Traceback" not in err


def test_simulate_reports_p_leaving_its_range_box(tmp_path, capsys):
    # p1 = x1, ranged over [-1, 1] and widened to [-1.005, 1.005]; from
    # x1 = 2, x1(t) = 2/(1 + 2t) stays outside for the samples t < 0.495
    path = _model_file(tmp_path, "-x1*x1 + u1",
                       box="box x1 -1 1\nbox u1 -1 1\n")
    art = str(tmp_path / "sq.json")
    assert main(["convert", path, "-o", art, "--grid", "101"]) == 0
    capsys.readouterr()
    code, _, err = run(["simulate", art, "-o", str(tmp_path / "o.csv"),
                        "--t-end", "1", "--x0=2"], capsys)
    assert code == 0
    assert err == ("warning: p1 left the stored range box at t = 0.0; "
                   "50 of 101 samples lie outside it\n")
    code, _, err = run(["compare", path, art, "--t-end", "1", "--x0=2"],
                       capsys)
    assert code == 0
    assert err.count("p1 left the stored range box at t = 0.0") == 1
    # an artifact without a stored box has nothing to compare against
    doc = json.loads(Path(art).read_text())
    doc["range_box"] = None
    Path(art).write_text(json.dumps(doc))
    code, _, err = run(["simulate", art, "-o", str(tmp_path / "o.csv"),
                        "--t-end", "1", "--x0=2"], capsys)
    assert code == 0
    assert err == ""


def test_simulate_inside_the_range_box_prints_no_warning(tmp_path,
                                                         disk_artifact, capsys):
    code, _, err = run(["simulate", disk_artifact, *DISK_SCENARIO,
                        "-o", str(tmp_path / "t.csv")], capsys)
    assert code == 0
    assert err == ""
    code, _, err = run(["compare", "unbalanced_disk", disk_artifact,
                        *DISK_SCENARIO], capsys)
    assert code == 0
    assert err == ""


def test_simulate_wrong_solver_exits_2(tmp_path, capsys):
    code, _, err = run(["simulate", "unbalanced_disk", "--solver", "discrete",
                        "--x0", "0,0", "--t-end", "1",
                        "-o", str(tmp_path / "t.csv")], capsys)
    assert code == 2


DISCRETE = ("format_version 1\nnx 1\nnu 1\nny 1\ntime discrete {}\n"
            "f1 = 0.5*x1 + u1\nh1 = x1\n")


@pytest.mark.parametrize("time,flags,message", [
    ("", ["--t-end", "inf"], "t_end must be positive and finite, got inf"),
    ("", ["--t-end", "nan"], "t_end must be positive and finite, got nan"),
    ("0.1", ["--t-end", "inf"],
     "t_end must be non-negative and finite, got inf"),
    ("0.1", ["--t-end", "-1"],
     "t_end must be non-negative and finite, got -1.0"),
    ("-1", ["--t-end", "nan"],
     "t_end must be non-negative and finite, got nan"),
    ("", ["--t-end", "1", "--output-dt", "nan"],
     "output_dt must be positive and finite, got nan"),
    ("", ["--t-end", "1", "--output-dt", "inf"],
     "output_dt must be positive and finite, got inf"),
    ("", ["--t-end", "1", "--rel-tol", "inf"],
     "rel_tol must be positive and finite, got inf"),
    ("", ["--t-end", "1", "--solver", "rk4", "--fixed-step", "nan"],
     "step must be positive and finite, got nan"),
    ("", ["--t-end", "1", "--max-step", "nan"],
     "max_step must be positive, got nan"),
    ("", ["--t-end", "1", "--x0", "1e400,0"],
     "--x0 values must be finite, got 1e400,0"),
    ("", ["--t-end", "1e300"], "t_end / output_dt = 1e+302 exceeds the "
     "output grid budget of 10000000 samples"),
    ("0.1", ["--t-end", "1e300"], "t_end / sample_time = 1e+301 exceeds the "
     "output grid budget of 10000000 samples"),
    ("-1", ["--t-end", "1e300"], "the step count t_end = 1e+300 exceeds the "
     "output grid budget of 10000000 samples"),
    ("", ["--t-end", "1", "--solver", "rk4", "--fixed-step", "1e-9"],
     "t_end / step = 1e+09 exceeds the output grid budget of 10000000 "
     "samples"),
    ("", ["--t-end", "1", "--max-step", "1e-9"], "t_end / max_step = 1e+09 "
     "exceeds the output grid budget of 10000000 samples"),
])
def test_simulate_non_finite_solver_settings_exit_2(tmp_path, capsys, time,
                                                    flags, message):
    target = "unbalanced_disk"
    if time:
        target = tmp_path / "d.nlss"
        target.write_text(DISCRETE.format(time))
    code, _, err = run(["simulate", str(target), *flags,
                        "-o", str(tmp_path / "t.csv")], capsys)
    assert (code, err) == (2, f"error: {message}\n")


@pytest.mark.parametrize("table,message", [
    ("t,u1\n", "no rows below the header"),
    ("t,u1\n0,1\nnan,1\n", "row 3: non-finite t"),
    ("t,u1\n0,1\n1,-inf\n", "row 3: non-finite u1"),
    ("t,u1\n0,nan\n", "row 2: non-finite u1"),
    ("t,u1\n0,1\n1,2,3\n", "row 3: 3 cells under 2 columns"),
    ("t,u1\n# a comment\n0,a\n",
     "row 3: could not convert string to float: 'a'"),
    ("t,u1\n0,1\n0,2\n", "row 3: times must be strictly increasing"),
], ids=["header-only", "nan-time", "inf-value", "nan-value", "ragged",
        "non-numeric", "repeated-time"])
def test_simulate_bad_input_table_exits_2(tmp_path, capsys, table, message):
    path = tmp_path / "u.csv"
    path.write_text(table)
    code, _, err = run(["simulate", "unbalanced_disk", "--input", str(path),
                        "--t-end", "1", "-o", str(tmp_path / "t.csv")], capsys)
    assert (code, err) == (2, f"error: {path}: {message}\n")


# --------------------------------------------------------------------- compare

def test_compare_clean(disk_artifact, capsys):
    code, text, _ = run(["compare", "unbalanced_disk", disk_artifact,
                         *DISK_SCENARIO, "--threshold", "1e-6"], capsys)
    assert code == 0
    assert "x1:" in text and "x2:" in text


def test_compare_detects_corruption(tmp_path, disk_artifact, capsys,
                                   coeff_pos):
    doc = json.load(open(disk_artifact))
    family = doc["matrices"]["A"]
    family["c"][coeff_pos(family, 0, 1, 1)] += 0.1
    bad = str(tmp_path / "corrupt.json")
    json.dump(doc, open(bad, "w"))
    code, text, _ = run(["compare", "unbalanced_disk", bad,
                         *DISK_SCENARIO, "--threshold", "1e-3"], capsys)
    assert code == 4
    rmse_vals = [float(line.split(":")[1]) for line in text.splitlines()
                 if line.strip().startswith("x")]
    assert max(rmse_vals) > 1e-3


def test_compare_without_threshold_reports_only(disk_artifact, capsys):
    code, text, _ = run(["compare", "unbalanced_disk", disk_artifact,
                         *DISK_SCENARIO], capsys)
    assert code == 0


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
def test_compare_bad_threshold_exits_2_before_simulating(capsys, threshold):
    # the artifact does not exist: the flag is refused before it is read
    code, _, err = run(["compare", "unbalanced_disk", "missing.json",
                        *DISK_SCENARIO, "--threshold", threshold], capsys)
    assert (code, err) == (2, "error: --threshold must be non-negative and "
                              f"finite, got {float(threshold)!r}\n")


# ------------------------------------------------------------------------ info

def test_info_model(capsys):
    code, text, _ = run(["info", "unbalanced_disk"], capsys)
    assert code == 0
    assert "nx=2" in text and "continuous" in text
    assert "f2 =" in text


def test_info_artifact(disk_artifact, capsys):
    code, text, _ = run(["info", disk_artifact], capsys)
    assert code == 0
    assert "np=1" in text and "p1 = sinc(x1)" in text
    assert "  format_version 2\n" in text
    assert "  coefficients: A 3, B 1, C 1, D 0 nonzero\n" in text


def _without_samples(report):
    del report["verify"]["samples"]
    return report


@pytest.mark.parametrize("edit, needle", [
    (lambda report: [], "AttributeError"),
    (_without_samples, "KeyError('samples')"),
    (lambda report: {**report, "warnings": 5},
     "TypeError('warnings must be a list')"),
    (lambda report: {**report, "warnings": "abc"},
     "TypeError('warnings must be a list')"),
], ids=["list", "no-samples", "warnings-int", "warnings-str"])
def test_info_refuses_a_malformed_report(tmp_path, disk_artifact, capsys,
                                         edit, needle):
    doc = json.load(open(disk_artifact))
    doc["report"] = edit(doc["report"])
    bad = str(tmp_path / "bad.json")
    json.dump(doc, open(bad, "w"))
    code, text, err = run(["info", bad], capsys)
    assert (code, text) == (2, "")
    assert err.startswith(f"error: {bad}: malformed report: {needle}")
    assert "Traceback" not in err


def test_info_reads_a_version_1_artifact(capsys):
    v1 = str(Path(__file__).parent / "data" / "unbalanced_disk_v1.json")
    code, text, _ = run(["info", v1], capsys)
    assert code == 0
    assert "  format_version 1\n" in text
    assert "  coefficients: A 3, B 1, C 1, D 0 nonzero\n" in text


# ------------------------------------------ a quadrature that does not converge
# p1 = integral01(0.6*(tan(2*lam*x1)^2 + 1) - 1) meets tan's pole in lam
# where |x1| > pi/4, and its quadrature does not converge there: each verb
# exits 3, naming the entry and where it was evaluated

CONVERGE = (r"p1: integral did not converge after \d+ subdivisions: "
            r"estimate \S+, error bound \S+")


def tan_model(tmp_path, half_width):
    path = tmp_path / f"tan_{half_width}.nlss"
    path.write_text("format_version 1\nnx 1\nnu 1\nny 1\n"
                    "f1 = -x1 + 0.3*tan(2*x1) + u1\nh1 = x1\n"
                    f"box x1 -{half_width} {half_width}\n")
    return str(path)


@pytest.fixture()
def tan_artifact(tmp_path, monkeypatch):
    # converted on a box clear of the pole; a small budget keeps the
    # integrals that do not converge cheap
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 50)
    out = str(tmp_path / "tan.json")
    assert main(["convert", tan_model(tmp_path, 0.5), "--mode", "numeric",
                 "--grid", "101", "-o", out]) == 0
    return out


def test_convert_names_the_entry_and_the_sample_that_do_not_converge(
        tmp_path, capsys, monkeypatch):
    # the range grid's two points, x1 = -1 and 1, converge within the
    # budget; verification then meets a sample that does not
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 400)
    code, _, err = run(["convert", tan_model(tmp_path, 1), "--grid", "2",
                        "-o", str(tmp_path / "a.json")], capsys)
    assert code == 3
    assert re.fullmatch(rf"error: {CONVERGE} at sample x1=\S+, u1=\S+",
                        err.splitlines()[-1]), err


def test_range_names_the_entry_and_the_grid_point_that_do_not_converge(
        tan_artifact, capsys):
    code, _, err = run(["range", tan_artifact, "--box", "x1=-1:1",
                        "--grid", "101"], capsys)
    assert code == 3
    assert re.fullmatch(rf"error: {CONVERGE} at grid point x1=-1.0\n",
                        err), err


def test_simulate_names_the_entry_and_the_time_that_do_not_converge(
        tan_artifact, tmp_path, capsys):
    code, _, err = run(["simulate", tan_artifact, "--x0", "0.79",
                        "--t-end", "0.5", "-o", str(tmp_path / "run.csv")],
                       capsys)
    assert code == 3
    assert re.fullmatch(rf"error: scheduling evaluation failed: {CONVERGE} "
                        rf"\(t = 0.0\)\n", err), err


# ------------------------------------------------ cosm1c in a model's equations
# cosm1c's derivative rule, 0.5*sinc(a/2)^2 - sinc(a), has the value -1/2
# at a = 0, so the line integral through x1 = 0 converts in both modes

@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_a_model_using_cosm1c_converts_over_a_box_holding_0(tmp_path, capsys,
                                                            mode):
    model = tmp_path / "cosm1c.nlss"
    model.write_text("format_version 1\nnx 1\nnu 1\nny 1\n"
                     "f1 = -x1 + 0.3*cosm1c(2*x1) + u1\nh1 = x1\n"
                     "box x1 -1 1\n")
    out = tmp_path / "cosm1c.json"
    code, _, err = run(["convert", str(model), "--mode", mode,
                        "-o", str(out)], capsys)
    assert code == 0, err
    assert json.loads(out.read_text())["report"]["verify"][
        "max_residual"] < 1e-14


# -------------------------------------------------------------- console script

def test_console_script_installed():
    # installed: run the script itself; from a source tree: check that the
    # declared entry point resolves and that the package runs as a module
    exe = shutil.which("lpvembed")
    env = None
    if exe:
        argv = [exe, "--version"]
    else:
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]\n", 1)[1]
        scripts = scripts.split("\n[", 1)[0].splitlines()
        targets = {k.strip(): v.strip().strip('"')
                   for k, _, v in (line.partition("=") for line in scripts)}
        assert targets.get("lpvembed") == "lpvembed.cli:main"
        module, _, attr = targets["lpvembed"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
        src = str(Path(lpvembed.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = [sys.executable, "-m", "lpvembed", "--version"]
    got = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert got.returncode == 0
    assert got.stdout.strip() == f"lpvembed {lpvembed.__version__}"
