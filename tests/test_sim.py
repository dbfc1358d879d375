"""Simulation engine: adaptive RK45, fixed RK4, discrete iteration, input
signals, trajectory containers, and self-scheduled LPV runs."""

import csv
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from lpvembed import expr, sim
from lpvembed.expr import EntryError
from lpvembed.factorize import (
    Anchor, DeferredIntegral, ModelError, NlssModel, factorize,
)
from lpvembed.lpv import (
    LpvssModel, SchedulingMap, estimate_range, extract_factor,
    verify_embedding,
)
from lpvembed.models import corpus, load_bundled
from lpvembed.parser import parse_expr
from lpvembed.sim import (
    GridMismatchError, InputSignal, SolverConfig, SolverError, Trajectory,
    rmse, read_input_csv, simulate_lpv_self_scheduled, simulate_nl,
    trajectory_header, write_trajectory_csv,
)


def pe(text, names):
    return parse_expr(text, variables=names)


def make_model(f_texts, h_texts, nx, nu, sample_time=0.0):
    names = tuple(f"x{i+1}" for i in range(nx)) + tuple(
        f"u{i+1}" for i in range(nu))
    return NlssModel(nx=nx, nu=nu, ny=len(h_texts),
                     f=tuple(pe(t, names) for t in f_texts),
                     h=tuple(pe(t, names) for t in h_texts),
                     sample_time=sample_time)


DECAY = make_model(["-x1"], ["x1"], 1, 1)


# -------------------------------------------------------------------- solvers

def test_rk45_exponential_decay_default_tolerances():
    traj = simulate_nl(DECAY, [1.0], InputSignal.zero(1), 1.0)
    assert abs(traj.x[-1, 0] - math.exp(-1.0)) <= 1e-7


def test_rk45_exponential_decay_tight_tolerances():
    cfg = SolverConfig(rel_tol=1e-12, abs_tol=1e-14)
    traj = simulate_nl(DECAY, [1.0], InputSignal.zero(1), 1.0, cfg)
    assert abs(traj.x[-1, 0] - math.exp(-1.0)) <= 1e-11


def test_rk4_error_shrinks_at_fourth_order():
    def endpoint_error(step):
        cfg = SolverConfig(method="rk4", step=step, output_dt=1.0)
        traj = simulate_nl(DECAY, [1.0], InputSignal.zero(1), 1.0, cfg)
        return abs(traj.x[-1, 0] - math.exp(-1.0))

    ratio = endpoint_error(0.1) / endpoint_error(0.05)
    assert 12.0 <= ratio <= 20.0      # fourth order: halving -> factor ~16


def test_rk45_linear_system_with_step_input():
    # dx = -2x + u, u = 1  =>  x(t) = (x0 - 1/2) e^{-2t} + 1/2
    model = make_model(["-2*x1 + u1"], ["x1"], 1, 1)
    u = InputSignal.from_exprs(["1"], 1)
    cfg = SolverConfig(rel_tol=1e-10, abs_tol=1e-12)
    traj = simulate_nl(model, [2.0], u, 3.0, cfg)
    want = (2.0 - 0.5) * np.exp(-2.0 * traj.t) + 0.5
    assert np.max(np.abs(traj.x[:, 0] - want)) < 1e-8


def test_dense_output_matches_truth_between_steps():
    # forced oscillator sampled on a fine grid; interpolation error must
    # stay near the integration tolerance
    model = make_model(["x2", "-4*x1"], ["x1"], 2, 1)
    cfg = SolverConfig(rel_tol=1e-9, abs_tol=1e-11, output_dt=0.001)
    traj = simulate_nl(model, [1.0, 0.0], InputSignal.zero(1), 2.0, cfg)
    want = np.cos(2.0 * traj.t)
    assert np.max(np.abs(traj.x[:, 0] - want)) < 1e-6


def test_discrete_iteration():
    model = make_model(["0.5*x1"], ["x1"], 1, 1, sample_time=1.0)
    traj = simulate_nl(model, [1.0], InputSignal.zero(1), 3.0)
    assert traj.t.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert traj.x[:, 0].tolist() == [1.0, 0.5, 0.25, 0.125]
    assert traj.y[:, 0].tolist() == [1.0, 0.5, 0.25, 0.125]


def test_discrete_unspecified_rate_counts_steps():
    model = make_model(["0.5*x1"], ["x1"], 1, 1, sample_time=-1.0)
    traj = simulate_nl(model, [1.0], InputSignal.zero(1), 4)
    assert traj.t.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert traj.x[-1, 0] == 0.0625


def test_discrete_fractional_rate():
    model = make_model(["x1 + u1"], ["x1"], 1, 1, sample_time=0.25)
    u = InputSignal.from_exprs(["1"], 1)
    traj = simulate_nl(model, [0.0], u, 1.0, SolverConfig())
    assert traj.t.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert traj.x[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_solver_method_must_match_time_domain():
    cont = DECAY
    disc = make_model(["0.5*x1"], ["x1"], 1, 1, sample_time=1.0)
    with pytest.raises(ValueError):
        simulate_nl(cont, [1.0], InputSignal.zero(1), 1.0,
                    SolverConfig(method="discrete"))
    with pytest.raises(ValueError):
        simulate_nl(disc, [1.0], InputSignal.zero(1), 1.0,
                    SolverConfig(method="rk45"))


def test_output_grid_includes_endpoint():
    traj = simulate_nl(DECAY, [1.0], InputSignal.zero(1), 0.05)
    assert traj.t.tolist() == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
    traj = simulate_nl(DECAY, [1.0], InputSignal.zero(1), 0.055)
    assert traj.t[-1] == 0.055


def test_tolerance_monotonicity(disk_doc):
    u = InputSignal.from_exprs(["2*sin(0.2*pi*t)"], 1)

    def endpoint(rel):
        cfg = SolverConfig(rel_tol=rel, abs_tol=1e-14)
        traj = simulate_nl(disk_doc.model, [0.0, 0.0], u, 5.0, cfg)
        return traj.x[-1]

    ref = endpoint(1e-12)
    e4 = np.max(np.abs(endpoint(1e-4) - ref))
    e6 = np.max(np.abs(endpoint(1e-6) - ref))
    e8 = np.max(np.abs(endpoint(1e-8) - ref))
    assert e4 / e6 >= 10.0
    assert e6 / e8 >= 10.0


def test_simulation_is_bit_deterministic(disk_doc):
    u = InputSignal.from_exprs(["2*sin(0.2*pi*t)"], 1)
    a = simulate_nl(disk_doc.model, [0.0, 0.0], u, 5.0)
    b = simulate_nl(disk_doc.model, [0.0, 0.0], u, 5.0)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.u, b.u)


# -------------------------------------------------------------- input signals

def test_input_from_expressions():
    u = InputSignal.from_exprs(["sin(t)", "2*t + 1"], 2)
    got = u(0.5)
    assert got[0] == pytest.approx(math.sin(0.5))
    assert got[1] == pytest.approx(2.0)


@pytest.mark.parametrize("text,t,cause", [
    ("1/t", 0.0, "float division by zero"),
    ("ln(t)", 0.0, "ln of non-positive value"),
    ("sqrt(t - 1)", 0.5, "sqrt of negative value"),
])
def test_input_evaluation_errors_are_solver_errors(text, t, cause):
    u = InputSignal.from_exprs(["1", text], 2)
    with pytest.raises(SolverError) as ei:
        u(t)
    assert str(ei.value) == f"input evaluation failed: u2: {cause} (t = {t!r})"
    assert ei.value.t == t
    # numpy scalar times, as the output grid passes them, print as floats
    with pytest.raises(SolverError, match=r"\(t = 0.5\)$"):
        InputSignal.from_exprs(["ln(t - 1)"], 1)(np.float64(0.5))


def test_simulation_stops_at_an_input_evaluation_error():
    with pytest.raises(SolverError, match="^input evaluation failed: u1: "
                                          "float division by zero"):
        simulate_nl(DECAY, [1.0], InputSignal.from_exprs(["1/t"], 1), 1.0)


def test_model_evaluation_errors_are_solver_errors():
    model = make_model(["-x1", "ln(x1)"], ["x2"], 2, 1)
    with pytest.raises(SolverError) as ei:
        simulate_nl(model, [0.0, 1.0], InputSignal.zero(1), 1.0)
    assert str(ei.value) == ("model evaluation failed: f2: ln of "
                             "non-positive value (t = 0.0)")


def test_model_division_by_zero_is_a_solver_error_without_a_warning():
    model = make_model(["-x1 + 1/x2", "-x2 + u1"], ["x1"], 2, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError) as ei:
            simulate_nl(model, [0.0, 0.0], InputSignal.zero(1), 1.0)
    assert str(ei.value) == "non-finite derivative (t = 0.0)"
    assert caught == []


def test_input_zero():
    assert InputSignal.zero(3)(1.7).tolist() == [0.0, 0.0, 0.0]


def test_zoh_holds_left_and_right():
    u = InputSignal.zoh([0.0, 1.0, 2.0], np.array([[1.0], [2.0], [3.0]]))
    assert u(-0.5)[0] == 1.0        # held before the first sample
    assert u(0.0)[0] == 1.0
    assert u(0.99)[0] == 1.0
    assert u(1.0)[0] == 2.0
    assert u(1.5)[0] == 2.0
    assert u(10.0)[0] == 3.0


def test_zoh_rejects_unsorted_times():
    with pytest.raises(ValueError):
        InputSignal.zoh([0.0, 1.0, 1.0], np.zeros((3, 1)))


@pytest.mark.parametrize("times,values", [
    ([], np.zeros((0, 1))),
    ([0.0, math.nan], np.zeros((2, 1))),
    ([math.nan], np.zeros((1, 1))),
    ([0.0, 1.0], np.array([[0.0], [math.inf]])),
])
def test_zoh_rejects_empty_and_non_finite_tables(times, values):
    with pytest.raises(ValueError, match="one or more samples, all finite"):
        InputSignal.zoh(times, values)


def test_read_input_csv(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("t,u1,u2\n0,1,10\n1,2,20\n2,3,30\n")
    u = read_input_csv(str(path), 2)
    assert u(0.5).tolist() == [1.0, 10.0]
    assert u(2.5).tolist() == [3.0, 30.0]


def test_read_input_csv_wrong_channels(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("t,u1\n0,1\n1,2\n")
    with pytest.raises(ValueError):
        read_input_csv(str(path), 2)


# ----------------------------------------------------------------- trajectory

def test_rmse_hand_computed():
    t = np.array([0.0, 1.0, 2.0])
    a = Trajectory(t=t, x=np.array([[0.0], [1.0], [2.0]]),
                   y=np.zeros((3, 1)), u=np.zeros((3, 1)))
    b = Trajectory(t=t, x=np.zeros((3, 1)),
                   y=np.zeros((3, 1)), u=np.zeros((3, 1)))
    assert rmse(a, b)[0] == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-15)


def test_output_grid_budget_is_checked_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid allocated")

    for make, args, settings in (
            (sim._output_grid, (1.0, 0.01), "t_end / output_dt"),
            (sim._discrete_grid, (1.0, 0.01), "t_end / sample_time"),
            (sim._discrete_grid, (100.0, -1.0), "the step count t_end")):
        monkeypatch.setattr(sim, "OUTPUT_GRID_BUDGET", 99)
        with monkeypatch.context() as mp:
            mp.setattr(np, "arange", refuse)
            with pytest.raises(ValueError) as ei:
                make(*args)
        assert str(ei.value) == (f"{settings} = 100 exceeds the output "
                                 "grid budget of 99 samples")
        monkeypatch.setattr(sim, "OUTPUT_GRID_BUDGET", 100)
        assert len(make(*args)) == 101


def test_rmse_requires_matching_grids():
    t1 = np.array([0.0, 1.0])
    t2 = np.array([0.0, 0.5])
    z = np.zeros((2, 1))
    a = Trajectory(t=t1, x=z, y=z, u=z)
    b = Trajectory(t=t2, x=z, y=z, u=z)
    with pytest.raises(GridMismatchError):
        rmse(a, b)


def test_trajectory_rejects_nonfinite():
    t = np.array([0.0, 1.0])
    bad = np.array([[0.0], [float("nan")]])
    z = np.zeros((2, 1))
    with pytest.raises(ValueError):
        Trajectory(t=t, x=bad, y=z, u=z)


def test_diverging_discrete_model_raises_solver_error():
    model = make_model(["x1^2"], ["x1"], 1, 1, sample_time=1.0)
    with pytest.raises(SolverError):
        simulate_nl(model, [10.0], InputSignal.zero(1), 400.0)


def test_diverging_discrete_self_scheduled_run_stops_at_first_overflow():
    # x1^2 from 10 squares past the float range at the 9th step; the run
    # must stop there rather than iterate the horizon on inf/NaN
    model = make_model(["x1^2"], ["x1"], 1, 1, sample_time=1.0)
    m, sm = extract_factor(factorize(model))
    steps = []
    evaluate = sm.evaluate
    sm.evaluate = lambda x, u: steps.append(float(x[0])) or evaluate(x, u)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError) as ei:
            simulate_lpv_self_scheduled(m, sm, [10.0], InputSignal.zero(1),
                                        400.0)
    assert ei.value.t == 9.0
    assert "non-finite state" in str(ei.value)
    assert len(steps) == 9                   # x0 .. x8, then x9 = inf
    assert steps[-1] == pytest.approx(1e256, rel=1e-12)


# y = 1e307*x1 with x1 = e^t overflows once e^t > 17.98, at t = 2.889;
# the first non-finite sample on the 0.01 grid is t = 2.89
OVERFLOWING_OUTPUT = make_model(["x1"], ["1e307*x1"], 1, 1)


def test_non_finite_output_sample_raises_solver_error():
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError) as ei:
            simulate_nl(OVERFLOWING_OUTPUT, [1.0], InputSignal.zero(1), 4.0)
    assert "non-finite output" in str(ei.value)
    assert ei.value.t == pytest.approx(2.89)


def test_non_finite_self_scheduled_output_raises_solver_error():
    m, sm = extract_factor(factorize(OVERFLOWING_OUTPUT))
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError) as ei:
            simulate_lpv_self_scheduled(m, sm, [1.0], InputSignal.zero(1), 4.0)
    assert "non-finite output" in str(ei.value)
    assert ei.value.t == pytest.approx(2.89)


def test_trajectory_csv_roundtrip(tmp_path, disk_doc):
    u = InputSignal.from_exprs(["2*sin(0.2*pi*t)"], 1)
    traj = simulate_nl(disk_doc.model, [0.0, 0.0], u, 1.0)
    path = tmp_path / "out.csv"
    write_trajectory_csv(traj, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# format_version: 1"
    assert lines[1] == "t,x1,x2,y1,u1"
    assert len(lines) == 2 + len(traj.t)
    # repr round trip: parse a cell back
    cells = lines[2].split(",")
    assert float(cells[0]) == traj.t[0]


def reference_csv(traj, path):
    """The trajectory writer as it was, through csv.writer."""
    n_p = traj.p.shape[1] if traj.p is not None else None
    blocks = [traj.t[:, None], traj.x, traj.y, traj.u]
    if traj.p is not None:
        blocks.append(traj.p)
    with open(path, "w", newline="") as fh:
        fh.write("# format_version: 1\n")
        w = csv.writer(fh)
        w.writerow(trajectory_header(traj.x.shape[1], traj.y.shape[1],
                                     traj.u.shape[1], n_p))
        for row in np.hstack(blocks):
            w.writerow([repr(float(v)) for v in row])


def test_trajectory_csv_bytes_equal_the_csv_writer(tmp_path, disk_doc):
    v = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5e-300])
    scheduled = Trajectory(t=np.arange(5) * 0.1, x=np.stack([v, -v], 1),
                           y=v[::-1, None], u=np.zeros((5, 0)),
                           p=np.stack([np.roll(v, k) for k in range(3)], 1))
    u = InputSignal.from_exprs(["2*sin(0.2*pi*t)"], 1)
    nonlinear = simulate_nl(disk_doc.model, [0.0, 0.0], u, 1.0)
    files = []
    for traj in (scheduled, nonlinear):
        write_trajectory_csv(traj, str(tmp_path / "new.csv"))
        reference_csv(traj, str(tmp_path / "old.csv"))
        files.append((tmp_path / "new.csv").read_bytes())
        assert files[-1] == (tmp_path / "old.csv").read_bytes()
        # the comment line ends in LF, the header and each row in CRLF
        assert files[-1].count(b"\r\n") == files[-1].count(b"\n") - 1
        assert files[-1].count(b"\r\n") == 1 + len(traj.t)
    assert files[0].startswith(
        b"# format_version: 1\n"
        b"t,x1,x2,y1,p1,p2,p3\r\n"
        b"0.0,-0.0,0.0,-1.5e-300,-0.0,-1.5e-300,0.30000000000000004\r\n"
        b"0.1,5e-324,-5e-324,0.30000000000000004,5e-324,-0.0,-1.5e-300\r\n")
    assert files[1].startswith(b"# format_version: 1\nt,x1,x2,y1,u1\r\n")


def test_trajectory_csv_streams_its_rows(tmp_path):
    # the shape of a 15 s chain-30 self-scheduled run: 1,501 samples of
    # t, 60 states, an output, an input and 88 scheduling variables
    rng = np.random.default_rng(0)
    n = 1501
    traj = Trajectory(np.linspace(0.0, 15.0, n), rng.standard_normal((n, 60)),
                      rng.standard_normal((n, 1)), rng.standard_normal((n, 1)),
                      rng.standard_normal((n, 88)))
    path = tmp_path / "chain.csv"
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole file as one string, or all rows as one array, is more
    assert peak < path.stat().st_size / 4


def test_trajectory_header_with_scheduling():
    assert trajectory_header(2, 1, 1, 1) == ["t", "x1", "x2", "y1", "u1", "p1"]
    assert trajectory_header(1, 2, 3, 0) == ["t", "x1", "y1", "y2", "u1", "u2",
                                             "u3"]


# -------------------------------------------------------- self-scheduled runs

def test_self_scheduled_matches_nonlinear_on_benchmark(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    u = InputSignal.from_exprs(["2*sin(0.2*pi*t)"], 1)
    cfg = SolverConfig()
    a = simulate_nl(disk_doc.model, [0.0, 0.0], u, 15.0, cfg)
    b = simulate_lpv_self_scheduled(m, sm, [0.0, 0.0], u, 15.0, cfg)
    assert np.max(rmse(a, b)) < 1e-8
    assert b.p is not None and b.p.shape == (len(b.t), 1)
    assert b.p[0, 0] == 1.0            # sinc(0) at the initial state


def test_self_scheduled_discrete():
    model = make_model(["0.5*x1 + sin(x1) + u1"], ["x1"], 1, 1,
                       sample_time=1.0)
    m, sm = extract_factor(factorize(model))
    u = InputSignal.from_exprs(["0.3"], 1)
    a = simulate_nl(model, [0.7], u, 6.0)
    b = simulate_lpv_self_scheduled(m, sm, [0.7], u, 6.0)
    assert np.max(np.abs(a.x - b.x)) < 1e-12


def test_embedding_tracks_corpus_models_across_scenarios():
    rng = random.Random(77)
    worst = 0.0
    for doc in corpus():
        model = doc.model
        m, sm = extract_factor(factorize(model))
        scenarios = [
            InputSignal.zero(model.nu),
            InputSignal.from_exprs(["0.6"] * model.nu, model.nu),
            InputSignal.from_exprs(
                [f"0.4*sin({1.0 + 0.3 * k}*t)" for k in range(model.nu)],
                model.nu),
            InputSignal.zoh(
                [0.0, 0.5, 1.0, 1.5],
                np.array([[rng.uniform(-0.5, 0.5) for _ in range(model.nu)]
                          for _ in range(4)])),
            InputSignal.from_exprs(
                [f"0.5*cos({2.0 + 0.5 * k}*t)" for k in range(model.nu)],
                model.nu),
        ]
        for u in scenarios:
            x0 = [rng.uniform(-0.4, 0.4) for _ in range(model.nx)]
            a = simulate_nl(model, x0, u, 2.0)
            b = simulate_lpv_self_scheduled(m, sm, x0, u, 2.0)
            worst = max(worst, float(np.max(rmse(a, b))))
    assert worst < 1e-6


def test_self_scheduled_run_sees_edits_to_the_arrays(disk_doc, coeff_pos):
    # the sparse maps are built per run, so an in-place edit of the stored
    # triplets between runs must show in the next run
    m, sm = extract_factor(factorize(disk_doc.model))
    u = InputSignal.from_exprs(["2*sin(0.2*pi*t)"], 1)
    a = simulate_lpv_self_scheduled(m, sm, [0.0, 0.0], u, 2.0)
    c = m.coeffs["A"].c
    at = coeff_pos(m.coeffs["A"], 0, 1, 1)
    c[at] += 0.5
    b = simulate_lpv_self_scheduled(m, sm, [0.0, 0.0], u, 2.0)
    assert np.max(np.abs(a.x - b.x)) > 1e-3
    c[at] -= 0.5
    c = simulate_lpv_self_scheduled(m, sm, [0.0, 0.0], u, 2.0)
    assert np.array_equal(a.x, c.x)


def test_self_scheduled_rk4_evaluates_p_once_per_rhs_call_and_sample(
        disk_doc, monkeypatch):
    # the benchmark derives its rhs count from these calls: one for the
    # initial derivative, four per RK4 step and one per output sample
    calls = []
    evaluate = SchedulingMap.evaluate
    monkeypatch.setattr(SchedulingMap, "evaluate",
                        lambda self, x, u: calls.append(1) or evaluate(self, x, u))
    m, sm = extract_factor(factorize(disk_doc.model))
    cfg = SolverConfig(method="rk4", step=0.125, output_dt=0.25)
    traj = simulate_lpv_self_scheduled(m, sm, [0.1, 0.0], InputSignal.zero(1),
                                       1.0, cfg)
    assert len(traj.t) == 5
    assert len(calls) == 1 + 4 * 8 + 5


def test_self_scheduled_rejects_a_mismatched_scheduling_map(disk_doc):
    m, sm = extract_factor(factorize(disk_doc.model))
    short = SchedulingMap((), sm.var_names)
    with pytest.raises(ModelError):
        simulate_lpv_self_scheduled(m, short, [0.0, 0.0], InputSignal.zero(1),
                                    1.0)


# ------------------------------------------------ one error for a failing entry

def _schedule():
    sm = SchedulingMap((pe("x1", ("x1",)), pe("ln(x1)", ("x1",))), ("x1",))
    sm.evaluate([-2.0], [])


def _range_table_block():
    # ln has numpy code: the block raises, and its walk names the point
    sm = SchedulingMap((pe("ln(x1)", ("x1",)),), ("x1",))
    estimate_range(sm, {"x1": (-1.0, 1.0)}, grid_per_dim=11)


def _range_point_walk():
    # a deferred entry has no numpy code: every block is walked
    names = ("x1", "u1")
    sm = SchedulingMap((pe("u1", names),
                        DeferredIntegral(pe("ln(x1 + lam)", names + ("lam",)))),
                       names)
    estimate_range(sm, {"x1": (-1.0, 1.0), "u1": (-1.0, 1.0)},
                   grid_per_dim=11)


def _offsets():
    factorize(make_model(["-x1 + u1"], ["1/x1"], 1, 1))


def _simulate_f():
    simulate_nl(make_model(["-x1", "ln(x1)"], ["x2"], 2, 1), [0.0, 1.0],
                InputSignal.zero(1), 1.0)


def _simulate_h():
    simulate_nl(make_model(["-x1"], ["x1", "sqrt(x1)"], 1, 1), [-1.0],
                InputSignal.zero(1), 1.0)


def _simulate_input():
    simulate_nl(DECAY, [1.0], InputSignal.from_exprs(["ln(t)"], 1), 1.0)


def _simulate_schedule():
    # p2 = integral01(ln(lam*x1 + 2)) fails at x1 = -2.5
    m, sm = extract_factor(factorize(make_model(["-x1 + u1*ln(x1 + 2)"],
                                                ["x1"], 1, 1)))
    simulate_lpv_self_scheduled(m, sm, [-2.5], InputSignal.zero(1), 1.0)


def _verify():
    # an empty LPV model against f1 = ln(x1), which fails where x1 <= 0
    model = make_model(["ln(x1)"], ["x1"], 1, 1)
    zero = np.zeros((1, 1, 1))
    m = LpvssModel.from_dense(zero, zero, zero, zero, nx=1, nu=1, ny=1, np=0,
                              V=np.zeros(1), W=np.zeros(1),
                              anchor=Anchor.origin(1, 1))
    verify_embedding(model, m, SchedulingMap((), model.var_names), samples=50)


@pytest.mark.parametrize("site, error, message, label, index", [
    (_schedule, EntryError, "p2: ln of non-positive value", "p2", 1),
    (_range_table_block, EntryError,
     "p1: ln of non-positive value at grid point x1=-1.0", "p1", 0),
    (_range_point_walk, EntryError,
     "p2: ln of non-positive value at grid point x1=-1.0", "p2", 1),
    (_offsets, EntryError,
     "h1: float division by zero at the anchor x1=0.0, u1=0.0", "h1", 0),
    (_simulate_f, SolverError,
     "model evaluation failed: f2: ln of non-positive value (t = 0.0)",
     "f2", 1),
    (_simulate_h, SolverError,
     "model evaluation failed: h2: sqrt of negative value (t = 0.0)",
     "h2", 1),
    (_simulate_input, SolverError,
     "input evaluation failed: u1: ln of non-positive value (t = 0.0)",
     "u1", 0),
    (_simulate_schedule, SolverError,
     "scheduling evaluation failed: p2: ln of non-positive value (t = 0.0)",
     "p2", 1),
    (_verify, EntryError, "f1: ln of non-positive value at sample "
     "x1=-0.9180529521276106, u1=-0.9669447289429418", "f1", 0),
], ids=["schedule", "range-table", "range-walk", "offsets", "simulate-f",
        "simulate-h", "simulate-input", "simulate-p", "verify"])
def test_every_evaluation_site_raises_one_entry_error(site, error, message,
                                                      label, index):
    with pytest.raises(error) as ei:
        site()
    assert type(ei.value) is error
    assert str(ei.value) == message
    entry = ei.value if error is EntryError else ei.value.__cause__
    assert isinstance(entry, EntryError)
    assert (entry.label, entry.index) == (label, index)
    assert str(entry) == f"{label}: {entry.cause}"


# ------------------------------------- Python floats first, numpy scalars after
# tanh(1/x1) at x1 = 0 raises on floats and is 1 on numpy scalars, as it
# was when every site called on numpy scalars; each case below is held
# at x1 = 0

HELD = make_model(["-x1*tanh(1/x1)"], ["tanh(1/x1) + x1"], 1, 1)


def held_lpv():
    """xi = -p1*x1 and y = 1, with p1 = tanh(1/x1)."""
    A = np.array([[[0.0]], [[-1.0]]])
    zero = np.zeros((2, 1, 1))
    m = LpvssModel.from_dense(A, zero, zero, zero, nx=1, nu=1, ny=1, np=1,
                              V=np.zeros(1), W=np.ones(1),
                              anchor=Anchor.origin(1, 1))
    return m, SchedulingMap((pe("tanh(1/x1)", ("x1", "u1")),),
                            HELD.var_names)


@pytest.fixture
def entry_searches(monkeypatch):
    """The compile_scalar calls made while the fixture is live: a search
    for a failing entry compiles the entries one by one."""
    calls = []
    real = expr.compile_scalar

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(expr, "compile_scalar", counted)
    return calls


def test_nonlinear_run_held_where_floats_divide_by_zero(entry_searches):
    traj = simulate_nl(HELD, [0.0], InputSignal.zero(1), 5.0)
    assert len(traj.t) == 501
    assert not traj.x.any() and (traj.y == 1.0).all()
    assert entry_searches == []


def test_self_scheduled_run_held_where_floats_divide_by_zero(entry_searches):
    m, sm = held_lpv()
    traj = simulate_lpv_self_scheduled(m, sm, [0.0], InputSignal.zero(1), 5.0)
    assert not traj.x.any()
    assert (traj.p == 1.0).all() and (traj.y == 1.0).all()
    assert entry_searches == []


def test_verify_where_floats_divide_by_zero(entry_searches):
    m, sm = held_lpv()
    report = verify_embedding(HELD, m, sm, samples=20,
                              box={"x1": (0.0, 0.0), "u1": (0.0, 0.0)})
    assert report.f_max.tolist() == [0.0] and report.h_max.tolist() == [0.0]
    assert report.f_worst == report.h_worst == [((0.0,), (0.0,))]
    assert entry_searches == []
