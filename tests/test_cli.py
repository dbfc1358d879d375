"""Command-line interface: verbs, exit codes, and file outputs."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lpvembed
from lpvembed.cli import main
from lpvembed.lpv import CoeffFamily, LpvssModel

DISK_SCENARIO = ["--input", "2*sin(0.2*pi*t)", "--x0", "0,0", "--t-end", "5"]


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


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


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_convert_without_samples_exits_2(tmp_path, capsys, samples):
    out = tmp_path / "disk.json"
    code, _, err = run(["convert", "unbalanced_disk", "-o", str(out),
                        "--samples", samples], capsys)
    assert code == 2
    assert err == f"error: samples must be at least 1, got {samples}\n"
    assert not out.exists()


def test_convert_missing_model_exits_2(tmp_path, capsys):
    code, _, err = run(["convert", "no_such_model", "-o",
                        str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "no such file" in err


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


def test_simulate_deeply_nested_model_falls_back_to_tree_walking(tmp_path,
                                                                 capsys):
    # too many nested parentheses for the Python compiler
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
    assert err == "error: h1: division by zero at the anchor x1=0.0, u1=0.0\n"
    code, _, err = run(["convert", path, "-o", str(tmp_path / "x.json"),
                        "--grid", "11", "--anchor", "x1=0,u1=1"], capsys)
    assert err == "error: h1: division by zero at the anchor x1=0.0, u1=1.0\n"


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


def test_invalid_box_flag_exits_2_like_the_same_box_in_a_model_file(
        tmp_path, capsys):
    path = _model_file(tmp_path, "-x1 + 0.1*sin(x1) + u1")
    code, _, err = run(["range", path, "--box", "x1=2:1"], capsys)
    assert code == 2
    assert "error: invalid box for x1: [2.0, 1.0]" in err
    code, _, err = run(["range", path, "--box", "x1=-1e309:1"], capsys)
    assert code == 2
    assert "error: invalid box for x1: [-inf, 1.0]" in err
    reversed_in_file = _model_file(tmp_path, "-x1 + 0.1*sin(x1) + u1",
                                   box="box x1 2 1\n")
    code, _, err = run(["range", reversed_in_file], capsys)
    assert code == 2
    assert f"{reversed_in_file}:8: invalid box for x1: [2.0, 1.0]" in err


def test_convert_bad_anchor_name_exits_2(tmp_path, capsys):
    code, _, err = run(["convert", "unbalanced_disk", "--anchor", "q=1",
                        "-o", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "anchor" in err


def test_cli_verbs_never_build_dense_coefficients(tmp_path, capsys,
                                                  monkeypatch):
    # the dense views and matrices(p) are for inspection; convert,
    # simulate, compare and info work on the stored triplets alone
    def refuse(*args, **kwargs):
        raise AssertionError("dense coefficients built")
    monkeypatch.setattr(CoeffFamily, "dense", refuse)
    monkeypatch.setattr(LpvssModel, "matrices", refuse)
    out = str(tmp_path / "disk.json")
    for argv in (["convert", "unbalanced_disk", "-o", out],
                 ["simulate", out, *DISK_SCENARIO, "-o",
                  str(tmp_path / "t.csv")],
                 ["compare", "unbalanced_disk", out, *DISK_SCENARIO],
                 ["info", out], ["range", out]):
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
    with np.errstate(over="ignore"):
        code, _, err = run(["simulate", path, "-o", str(tmp_path / "o.csv"),
                            "--t-end", "1", "--x0=1e10"], capsys)
    assert code == 3
    assert "non-finite output (t = 0.0)" in err


@pytest.mark.parametrize("expr", ["1/t", "ln(t)"])
@pytest.mark.parametrize("discrete", [False, True], ids=["rk45", "discrete"])
def test_simulate_input_evaluation_error_exits_3(tmp_path, capsys, expr,
                                                 discrete):
    # a discrete run samples the input at numpy grid times first, where
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


def test_info_reads_a_version_1_artifact(capsys):
    v1 = str(Path(__file__).parent / "data" / "unbalanced_disk_v1.json")
    code, text, _ = run(["info", v1], capsys)
    assert code == 0
    assert "  format_version 1\n" in text
    assert "  coefficients: A 3, B 1, C 1, D 0 nonzero\n" in text


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
