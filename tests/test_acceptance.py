"""Acceptance gate: nine end-to-end criteria, each printing one PASS/FAIL
line with its measured figures.  Run with -s (or read the -v test lines)
to see them."""

import json
import math
import time

import numpy as np
import pytest

from lpvembed.cli import main
from lpvembed.expr import to_string
from lpvembed.factorize import factorize, jacobian
from lpvembed.lpv import (
    estimate_range, extract_element, extract_factor, verify_embedding,
)
from lpvembed.models import corpus, load_bundled
from lpvembed.sim import (
    InputSignal, SolverConfig, rmse, simulate_lpv_self_scheduled, simulate_nl,
)
from lpvembed.synthetic import random_model

from conftest import tree_eval

MGL_OVER_J = 0.07 * 9.8 * 0.042 / 2.2e-4
BENCH_INPUT = ["2*sin(0.2*pi*t)"]


def report(n, ok, detail):
    print(f"\nacceptance criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def disk_doc():
    return load_bundled("unbalanced_disk")


def test_criterion_1_disk_factor_structure(disk_doc):
    t0 = time.perf_counter()
    fs = factorize(disk_doc.model)
    m, sm = extract_factor(fs)
    dt = time.perf_counter() - t0

    coeff = m.A[1][1, 0]
    ok = (sm.np == 1
          and to_string(sm.entries[0]) == "sinc(x1)"
          and m.A[0].tolist() == [[0.0, 1.0], [0.0, -1.6747613465081226]]
          and m.A[1][0].tolist() == [0.0, 0.0] and m.A[1][1, 1] == 0.0
          and abs(coeff - MGL_OVER_J) <= 1e-6
          and dt < 1.0)
    report(1, ok, f"np={sm.np}, p1={to_string(sm.entries[0])}, "
                  f"coeff={coeff!r} (want {MGL_OVER_J!r} +-1e-6), {dt:.3f}s")


def test_criterion_2_element_scheduling_range(disk_doc):
    t0 = time.perf_counter()
    m, sm = extract_element(factorize(disk_doc.model))
    rb = estimate_range(sm, disk_doc.box, grid_per_dim=10000)
    dt = time.perf_counter() - t0
    lo, hi = rb.raw[0]
    ok = (abs(lo - (-28.45)) <= 0.005 * 28.45
          and abs(hi - 130.96) <= 0.005 * 130.96
          and dt < 5.0)
    report(2, ok, f"raw range [{lo:.5f}, {hi:.5f}] "
                  f"(want [-28.45, 130.96] +-0.5%), {dt:.3f}s")


def test_criterion_3_factor_scheduling_range(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    rb = estimate_range(sm, disk_doc.box, grid_per_dim=10000)
    lo, hi = rb.raw[0]
    ok = abs(lo - (-0.2172)) <= 0.005 and abs(hi - 1.0) <= 0.005
    report(3, ok, f"raw range [{lo:.6f}, {hi:.6f}] "
                  f"(want [-0.2172, 1.0] +-0.005, pre-widening)")


def test_criterion_4_benchmark_self_scheduled_rmse(disk_doc):
    t0 = time.perf_counter()
    u = InputSignal.from_exprs(BENCH_INPUT, 1)
    cfg = SolverConfig(rel_tol=1e-10, abs_tol=1e-12)   # shared by all runs
    worst = {}
    for mode in ("analytic", "numeric"):
        m, sm = extract_factor(factorize(disk_doc.model, mode=mode))
        a = simulate_nl(disk_doc.model, [0.0, 0.0], u, 15.0, cfg)
        b = simulate_lpv_self_scheduled(m, sm, [0.0, 0.0], u, 15.0, cfg)
        worst[mode] = float(np.max(rmse(a, b)))
    dt = time.perf_counter() - t0
    ok = all(v <= 1e-8 for v in worst.values()) and dt < 10.0
    report(4, ok, f"per-state RMSE analytic={worst['analytic']:.3e}, "
                  f"numeric={worst['numeric']:.3e} (want <=1e-8), {dt:.2f}s")


def test_criterion_5_random_model_reconstruction():
    t0 = time.perf_counter()
    worst_num = worst_ana_clean = worst_ana_fallback = 0.0
    for seed in range(50):
        model = random_model(seed)
        for mode in ("analytic", "numeric"):
            fs = factorize(model, mode=mode)
            m, sm = extract_factor(fs)
            rep = verify_embedding(model, m, sm, samples=100, seed=seed)
            r = rep.max_residual
            if mode == "numeric":
                worst_num = max(worst_num, r)
            elif fs.warnings:
                worst_ana_fallback = max(worst_ana_fallback, r)
            else:
                worst_ana_clean = max(worst_ana_clean, r)
    dt = time.perf_counter() - t0
    ok = (worst_num <= 1e-8 and worst_ana_fallback <= 1e-8
          and worst_ana_clean <= 1e-10 and dt < 60.0)
    report(5, ok, f"50 models x 100 points: numeric worst {worst_num:.2e} "
                  f"(<=1e-8), closed-form worst {worst_ana_clean:.2e} "
                  f"(<=1e-10), fallback worst {worst_ana_fallback:.2e} "
                  f"(<=1e-8), {dt:.1f}s")


def test_criterion_6_matrices_finite_and_match_jacobians_at_origin(block_at):
    worst = 0.0
    finite = True
    for doc in corpus():
        model = doc.model
        fs = factorize(model)                     # origin anchor, analytic
        bind = {n: 0.0 for n in model.var_names}
        for tag, wrt in (("A_bar", model.x_names), ("B_bar", model.u_names),
                         ("C_bar", model.x_names), ("D_bar", model.u_names)):
            eqs = model.f if tag in ("A_bar", "B_bar") else model.h
            got = block_at(getattr(fs, tag), bind)
            finite = finite and bool(np.all(np.isfinite(got)))
            want = np.array([[tree_eval(e, bind) for e in row]
                             for row in jacobian(eqs, wrt).entries])
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = finite and worst <= 1e-12
    report(6, ok, f"corpus matrices at the origin: finite={finite}, "
                  f"max |entry - Jacobian| = {worst:.2e} (want <=1e-12)")


def test_criterion_7_deferred_scheduling_matches_quadrature_oracle():
    doc = load_bundled("tanh_example")
    m, sm = extract_factor(factorize(doc.model))

    def simpson_oracle(x, n=100000):
        f = lambda lam: 1.0 - math.tanh(lam * x) ** 2
        h = 1.0 / n
        s = f(0.0) + f(1.0)
        for i in range(1, n):
            s += f(i * h) * (4.0 if i % 2 else 2.0)
        return s * h / 3.0

    worst = 0.0
    for x in (-3.0, -1.0, 0.5, 2.0):
        got = sm.evaluate([x], [0.0])[0]
        worst = max(worst, abs(got - simpson_oracle(x)))
    at_zero = sm.evaluate([0.0], [0.0])[0]
    ok = worst <= 1e-9 and at_zero == 1.0
    report(7, ok, f"deferred entry vs Simpson oracle: max err {worst:.2e} "
                  f"(<=1e-9), value at x=0 is {at_zero!r} (want exactly 1.0)")


def test_criterion_8_solver_accuracy_and_order():
    from lpvembed.factorize import NlssModel
    from lpvembed.parser import parse_expr
    names = ("x1", "u1")
    decay = NlssModel(nx=1, nu=1, ny=1,
                      f=(parse_expr("-x1", variables=names),),
                      h=(parse_expr("x1", variables=names),))
    traj = simulate_nl(decay, [1.0], InputSignal.zero(1), 1.0)
    end_err = abs(traj.x[-1, 0] - math.exp(-1.0))

    def rk4_err(step):
        cfg = SolverConfig(method="rk4", step=step, output_dt=1.0)
        t = simulate_nl(decay, [1.0], InputSignal.zero(1), 1.0, cfg)
        return abs(t.x[-1, 0] - math.exp(-1.0))

    ratio = rk4_err(0.1) / rk4_err(0.05)
    ok = end_err <= 1e-7 and 12.0 <= ratio <= 20.0
    report(8, ok, f"adaptive endpoint error {end_err:.2e} (<=1e-7), "
                  f"RK4 halving ratio {ratio:.2f} (want in [12, 20])")


def test_criterion_9_corruption_is_detected(tmp_path, disk_doc, capsys,
                                            coeff_pos):
    # a) library-level: verification residual jumps past 0.09
    m, sm = extract_factor(factorize(disk_doc.model))
    m.coeffs["A"].c[coeff_pos(m.coeffs["A"], 0, 1, 1)] += 0.1
    rep = verify_embedding(disk_doc.model, m, sm, samples=1000,
                           box=disk_doc.box, seed=0)

    # b) CLI-level: compare flags the corrupt artifact with a nonzero exit
    clean = str(tmp_path / "disk.json")
    assert main(["convert", "unbalanced_disk", "-o", clean]) == 0
    doc = json.load(open(clean))
    family = doc["matrices"]["A"]
    family["c"][coeff_pos(family, 0, 1, 1)] += 0.1
    corrupt = str(tmp_path / "corrupt.json")
    json.dump(doc, open(corrupt, "w"))
    code = main(["compare", "unbalanced_disk", corrupt,
                 "--input", BENCH_INPUT[0], "--x0", "0,0", "--t-end", "15",
                 "--threshold", "1e-3"])
    text = capsys.readouterr().out
    worst_rmse = max(float(line.split(":")[1]) for line in text.splitlines()
                     if line.strip().startswith("x"))
    ok = rep.max_residual >= 0.09 and code != 0 and worst_rmse > 1e-3
    report(9, ok, f"+0.1 coefficient: residual {rep.max_residual:.3f} "
                  f"(>=0.09), compare RMSE {worst_rmse:.2e} (>1e-3), "
                  f"exit code {code} (nonzero)")
