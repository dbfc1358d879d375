"""Simulation of nonlinear models and self-scheduled LPV models.

Both kinds of model run through one driver, :func:`_simulate`, which
takes a state map ``step(t, x, u)`` and an output map ``output(t, x, u)``
and does everything else: dimension checks, method selection, input
and output sampling on the grid, and the solver.  Continuous-time models
integrate with an adaptive Dormand-Prince 5(4) pair (final step clipped
to the horizon) or a fixed-step classic RK4; both integrators emit
accepted steps, and one sampler fills the output grid from them by cubic
Hermite interpolation.  Discrete-time models iterate the state map and
stop at the first non-finite state.

:func:`simulate_nl` hands the driver f and h, each compiled once into
one function that returns the whole vector (see :func:`compile_vector`),
as are the expressions of an input signal.  f, h and the scheduling map
run on the state and input as Python floats; only where that raises do
they run again on numpy scalars, whose semantics they keep, so
``tanh(1/x1)`` is still 1 at x1 = 0 (see :func:`call_floats`).  An
EntryError from any of them stops the run with a SolverError naming the
entry and the time.
:func:`simulate_lpv_self_scheduled` hands it maps that close the
scheduling map at every evaluation: p = eta(x, u(t)), then
xi(x) = A(p)(x - x_bar) + B(p)(u - u_bar) + V, and likewise for y.
It evaluates that realization through the sparse maps of
:meth:`LpvssModel.affine_maps`, built once per run from the model's
stored coefficient triplets, so a rhs call costs about the number of
nonzero coefficients rather than np * nx^2, and the state map builds no
C(p) or D(p).  The maps agree with :meth:`LpvssModel.matrices` to rounding,
not bit for bit.

Everything here is deterministic: identical inputs and configuration
produce bit-identical trajectories.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expr import EntryError, Expr, call_floats, compile_vector
from .factorize import ModelError, NlssModel
from .lpv import LpvssModel, SchedulingMap
from .parser import parse_expr

TRAJECTORY_FORMAT_VERSION = 1


class SolverError(Exception):
    """Integration failed; carries the time of failure."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t


class GridMismatchError(Exception):
    """Trajectories live on different time grids."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

class InputSignal:
    """A u(t) source: closed-form expressions, a ZOH table, or zero."""

    def __init__(self, nu: int, fn: Callable[[float], np.ndarray]):
        self.nu = nu
        self._fn = fn

    def __call__(self, t: float) -> np.ndarray:
        # grid times are numpy scalars, for which 1/t at 0 is inf with a
        # warning rather than an error
        return self._fn(float(t))

    @classmethod
    def zero(cls, nu: int) -> "InputSignal":
        z = np.zeros(nu)
        return cls(nu, lambda t: z)

    @classmethod
    def from_exprs(cls, sources: Sequence[str | Expr], nu: int) -> "InputSignal":
        """One expression in t per channel (";"-separated in CLI usage)."""
        if len(sources) != nu:
            raise ValueError(f"expected {nu} input expressions, got {len(sources)}")
        exprs = tuple(parse_expr(s, variables=("t",)) if isinstance(s, str)
                      else s for s in sources)
        vector = compile_vector(exprs, ("t",), "u")
        return cls(nu, _at_time("input", lambda t: np.array(vector(t))))

    @classmethod
    def zoh(cls, times: Sequence[float], values: np.ndarray) -> "InputSignal":
        """Zero-order hold over a sample table (held left of the first sample too)."""
        times = np.asarray(times, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != times.shape[0]:
            raise ValueError("ZOH table: times and values disagree in length")
        if not (times.size and np.isfinite(times).all()
                and np.isfinite(values).all()):
            raise ValueError("ZOH table: needs one or more samples, all finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("ZOH table: times must be strictly increasing")
        nu = values.shape[1]

        def fn(t: float) -> np.ndarray:
            i = int(np.searchsorted(times, t, side="right")) - 1
            return values[max(i, 0)]

        return cls(nu, fn)


# ---------------------------------------------------------------------------
# configuration and trajectories
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Solver selection and tolerances.

    method 'auto' resolves to 'rk45' for continuous-time models and
    'discrete' for discrete-time ones; explicit methods must match the
    model's time domain.  ``step`` is the fixed RK4 step; ``output_dt``
    the spacing of the reported grid.
    """

    method: str = "auto"
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = math.inf
    step: float = 1e-3
    output_dt: float = 0.01

    def __post_init__(self):
        if self.method not in ("auto", "rk45", "rk4", "discrete"):
            raise ValueError(f"unknown method '{self.method}'")
        for name in ("rel_tol", "abs_tol", "step", "output_dt"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}")
        if not self.max_step > 0.0:  # +inf, the default, sets no bound
            raise ValueError(f"max_step must be positive, got {self.max_step!r}")

    def resolve(self, sample_time: float) -> str:
        continuous = sample_time == 0.0
        if self.method == "auto":
            return "rk45" if continuous else "discrete"
        if continuous and self.method == "discrete":
            raise ValueError("discrete iteration needs a discrete-time model")
        if not continuous and self.method != "discrete":
            raise ValueError("discrete-time models use the discrete method")
        return self.method


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray                  # (n, nx)
    y: np.ndarray                  # (n, ny)
    u: np.ndarray                  # (n, nu)
    p: np.ndarray | None = None    # (n, np) for self-scheduled runs

    def __post_init__(self):
        n = len(self.t)
        for name in ("x", "y", "u", "p"):
            arr = getattr(self, name)
            if arr is None:
                continue
            if arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} rows for {n} times")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")


def rmse(a: Trajectory, b: Trajectory) -> np.ndarray:
    """Per-state root-mean-square difference on a shared grid."""
    if a.t.shape != b.t.shape or not np.array_equal(a.t, b.t):
        raise GridMismatchError("trajectories are on different time grids")
    return np.sqrt(np.mean((a.x - b.x) ** 2, axis=0))


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau; row 7 is also the 5th-order solution
# (FSAL), _E holds b5 - b4 for the embedded error estimate.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
      -17253 / 339200, 22 / 525, -1 / 40)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


def _hermite(t0, y0, f0, t1, y1, f1, s):
    """Cubic Hermite value at s in [t0, t1]; 4th-order accurate."""
    h = t1 - t0
    th = (s - t0) / h
    u = th * th * (3.0 - 2.0 * th)
    return ((1.0 - u) * y0 + u * y1
            + th * (th - 1.0) * ((th - 1.0) * h * f0 + th * h * f1))


def _error_norm(err, y0, y1, rel_tol, abs_tol):
    sc = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / sc) ** 2)))


def _initial_step(rhs, t0, y0, f0, t_end, rel_tol, abs_tol):
    sc = abs_tol + rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0)


def _rk45_steps(rhs, t, y, t_end, cfg: SolverConfig):
    """Accepted Dormand-Prince steps as (t, y, f, t_new, y_new, f_new)."""
    f = rhs(t, y)
    if not np.all(np.isfinite(f)):
        raise SolverError("non-finite derivative", t)
    h = min(_initial_step(rhs, t, y, f, t_end, cfg.rel_tol, cfg.abs_tol),
            cfg.max_step)
    eps = np.finfo(float).eps
    k = [f] + [None] * 6
    while t < t_end:
        rem = t_end - t
        if rem <= 4 * eps * max(abs(t_end), 1.0):
            break  # within rounding distance of the horizon
        h = min(h, cfg.max_step, rem)
        if h < 16 * eps * max(abs(t), 1.0):
            raise SolverError("step size underflow", t)
        for i in range(1, 7):
            yi = y + h * sum(aij * k[j] for j, aij in enumerate(_A[i]) if aij)
            k[i] = rhs(t + _C[i] * h, yi)
        y_new = yi  # stage 7 state: the 5th-order solution (FSAL)
        if not all(np.all(np.isfinite(ki)) for ki in k):
            raise SolverError("non-finite derivative", t)
        err_vec = h * sum(e * k[j] for j, e in enumerate(_E) if e)
        err = _error_norm(err_vec, y, y_new, cfg.rel_tol, cfg.abs_tol)
        if err <= 1.0:
            t_new = t + h
            yield t, y, k[0], t_new, y_new, k[6]
            t, y = t_new, y_new
            k[0] = k[6]  # FSAL
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
            h *= factor
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)


def _rk4_steps(rhs, t, y, t_end, cfg: SolverConfig):
    """Fixed classic RK4 steps as (t, y, f, t_new, y_new, f_new)."""
    f = rhs(t, y)
    eps = np.finfo(float).eps
    while t < t_end:
        rem = t_end - t
        if rem <= 4 * eps * max(abs(t_end), 1.0):
            break
        h = min(cfg.step, rem)
        k1 = f
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y_new)):
            raise SolverError("non-finite state", t)
        t_new = t + h
        f_new = rhs(t_new, y_new)
        yield t, y, f, t_new, y_new, f_new
        t, y, f = t_new, y_new, f_new


def _sample_steps(steps, y0, t_grid) -> np.ndarray:
    """States on ``t_grid`` from a stream of accepted steps.

    Grid points inside a step are Hermite-interpolated from its end
    values and derivatives; points at or past the last step's end (the
    horizon, up to rounding) take its final state.
    """
    out = np.empty((len(t_grid), len(y0)))
    out[0] = y = y0
    gi = 1  # next grid index to fill
    for t, y, f, t_new, y_new, f_new in steps:
        while gi < len(t_grid) and t_grid[gi] <= t_new:
            s = t_grid[gi]
            out[gi] = (y_new if s == t_new
                       else _hermite(t, y, f, t_new, y_new, f_new, s))
            gi += 1
        y = y_new
    out[gi:] = y
    return out


# most output samples a run may ask for, checked before the grid and
# the sample arrays are allocated
OUTPUT_GRID_BUDGET = 10_000_000


def _check_grid_size(n: float, settings: str) -> None:
    if not n <= OUTPUT_GRID_BUDGET:
        raise ValueError(f"{settings} = {n:g} exceeds the output grid "
                         f"budget of {OUTPUT_GRID_BUDGET} samples")


def _output_grid(t_end: float, dt: float) -> np.ndarray:
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    _check_grid_size(t_end / dt, "t_end / output_dt")
    n = int(math.floor(t_end / dt + 1e-9))
    grid = np.minimum(np.arange(n + 1) * dt, t_end)
    if grid[-1] < t_end:
        grid = np.append(grid, t_end)
    return grid


def _discrete_grid(t_end: float, sample_time: float) -> np.ndarray:
    if not 0.0 <= t_end < math.inf:
        raise ValueError(
            f"t_end must be non-negative and finite, got {t_end!r}")
    if sample_time > 0:
        _check_grid_size(t_end / sample_time, "t_end / sample_time")
        n = int(math.floor(t_end / sample_time + 1e-9))
        return np.arange(n + 1) * sample_time
    # unspecified sample time: t_end is the step count
    n = int(round(t_end))
    if n < 0 or abs(t_end - n) > 1e-9:
        raise ValueError("with sample_time -1, t_end must be a step count")
    _check_grid_size(n, "the step count t_end")
    return np.arange(n + 1, dtype=float)


# ---------------------------------------------------------------------------
# front ends
# ---------------------------------------------------------------------------

# numpy's warnings off: the non-finite value they warn of is the error
@np.errstate(all="ignore")
def _simulate(step, output, nx: int, nu: int, sample_time: float,
              x0: Sequence[float], u: InputSignal, t_end: float,
              cfg: SolverConfig | None):
    """Solve xi = step(t, x, u(t)) and sample y = output(t, x, u(t)).

    Returns the grid and the state, output and input samples on it.
    A non-finite state or output sample raises SolverError at its time.
    """
    cfg = cfg or SolverConfig()
    if len(x0) != nx or u.nu != nu:
        raise ValueError("x0 or input dimension does not match the model")
    method = cfg.resolve(sample_time)
    x0 = np.array(x0, dtype=float)

    if method == "discrete":
        grid = _discrete_grid(t_end, sample_time)
        xs = np.empty((len(grid), nx))
        us = np.array([u(t) for t in grid])
        xs[0] = x0
        for i in range(len(grid) - 1):
            xs[i + 1] = step(float(grid[i]), xs[i], us[i])
            if not np.all(np.isfinite(xs[i + 1])):
                raise SolverError("non-finite state", float(grid[i + 1]))
    else:
        grid = _output_grid(t_end, cfg.output_dt)
        steps = _rk45_steps if method == "rk45" else _rk4_steps
        xs = _sample_steps(
            steps(lambda t, x: step(t, x, u(t)), float(grid[0]), x0,
                  float(grid[-1]), cfg),
            x0, grid)
        us = np.array([u(t) for t in grid])
    # rows go straight into one array, sized by the first row; a list of
    # per-sample rows raises the peak memory of long LPV runs
    ys = None
    for i, t in enumerate(grid):
        y = output(float(t), xs[i], us[i])
        if ys is None:
            ys = np.empty((len(grid), len(y)))
        ys[i] = y
    # one check over all rows: a per-row check cost several percent of
    # a short nonlinear run
    bad = np.flatnonzero(~np.isfinite(ys).all(axis=1))
    if bad.size:
        raise SolverError("non-finite output", float(grid[bad[0]]))
    return grid, xs, ys, us


def _at_time(what: str, fn):
    """``fn(t, ...)``: the one place an EntryError becomes a SolverError."""
    def call(t, *args):
        try:
            return fn(t, *args)
        except EntryError as exc:
            raise SolverError(f"{what} evaluation failed: {exc}", t) from exc
    return call


def simulate_nl(model: NlssModel, x0: Sequence[float], u: InputSignal,
                t_end: float, cfg: SolverConfig | None = None) -> Trajectory:
    """Simulate the nonlinear model itself."""
    f = compile_vector(model.f, model.var_names, "f")
    h = compile_vector(model.h, model.var_names, "h")
    return Trajectory(*_simulate(
        _at_time("model", lambda t, x, uu: np.array(call_floats(f, x, uu))),
        _at_time("model", lambda t, x, uu: np.array(call_floats(h, x, uu))),
        model.nx, model.nu, model.sample_time, x0, u, t_end, cfg))


def simulate_lpv_self_scheduled(m: LpvssModel, sm: SchedulingMap,
                                x0: Sequence[float], u: InputSignal,
                                t_end: float,
                                cfg: SolverConfig | None = None) -> Trajectory:
    """Simulate the LPV model closed over its own scheduling map.

    Every derivative (or step map) evaluation recomputes
    p = eta(x, u(t)) and applies the sparse state map; every output
    sample does too, applies the output map and records p alongside y.
    The maps are built from the model's triplets once per run.
    """
    if sm.np != m.np:
        raise ModelError(f"the scheduling map has {sm.np} entries, "
                         f"the model expects {m.np}")
    state_map, output_map = m.affine_maps()

    def step(t, x, uu):
        return state_map(sm.evaluate(x, uu), x, uu)

    def output(t, x, uu):
        p = sm.evaluate(x, uu)
        return np.concatenate((output_map(p, x, uu), p))

    grid, xs, yp, us = _simulate(
        _at_time("scheduling", step), _at_time("scheduling", output),
        m.nx, m.nu, m.sample_time, x0, u, t_end, cfg)
    return Trajectory(grid, xs, yp[:, :m.ny], us, yp[:, m.ny:])


# ---------------------------------------------------------------------------
# trajectory I/O
# ---------------------------------------------------------------------------

def trajectory_header(nx: int, ny: int, nu: int, n_p: int | None) -> list[str]:
    cols = (["t"]
            + [f"x{i + 1}" for i in range(nx)]
            + [f"y{i + 1}" for i in range(ny)]
            + [f"u{i + 1}" for i in range(nu)])
    if n_p is not None:
        cols += [f"p{i + 1}" for i in range(n_p)]
    return cols


def write_trajectory_csv(traj: Trajectory, path: str):
    """Columns t, x.., y.., u.. and p.. when scheduling was recorded."""
    n_p = traj.p.shape[1] if traj.p is not None else None
    blocks = [traj.t[:, None], traj.x, traj.y, traj.u]
    if traj.p is not None:
        blocks.append(traj.p)
    header = trajectory_header(traj.x.shape[1], traj.y.shape[1],
                               traj.u.shape[1], n_p)
    # CSV as csv.writer writes it, CRLF line ends included: no column
    # name or float repr needs quoting.  One row at a time, since the
    # whole file as one string, or all rows as one array, would raise
    # the peak memory of a long run
    with open(path, "w", newline="") as fh:
        fh.write(f"# format_version: {TRAJECTORY_FORMAT_VERSION}\n")
        fh.write(",".join(header) + "\r\n")
        for row in zip(*blocks):
            fh.write(",".join(map(repr, np.concatenate(row).tolist()))
                     + "\r\n")


def trajectory_to_dict(traj: Trajectory) -> dict:
    out = {
        "format_version": TRAJECTORY_FORMAT_VERSION,
        "kind": "trajectory",
        "t": [float(v) for v in traj.t],
        "x": traj.x.tolist(),
        "y": traj.y.tolist(),
        "u": traj.u.tolist(),
    }
    if traj.p is not None:
        out["p"] = traj.p.tolist()
    return out


def read_input_csv(path: str, nu: int) -> InputSignal:
    """Build a ZOH input from a CSV with a t column and u1..u_nu columns.

    A bad row is named by its line in the file: ``path: row N: ...``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader
                if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty input table")
    header = [c.strip() for c in rows[0][1]]
    names = ("t",) + tuple(f"u{i + 1}" for i in range(nu))
    try:
        cols = [header.index(n) for n in names]
    except ValueError:
        raise ValueError(
            f"{path}: header must contain t and u1..u{nu}") from None
    if len(rows) == 1:
        raise ValueError(f"{path}: no rows below the header")
    body = []
    for no, r in rows[1:]:
        try:
            if len(r) != len(header):
                raise ValueError(f"{len(r)} cells under {len(header)} columns")
            body.append([float(r[k]) for k in cols])
            bad = [n for n, v in zip(names, body[-1]) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"non-finite {bad[0]}")
            if len(body) > 1 and body[-1][0] <= body[-2][0]:
                raise ValueError("times must be strictly increasing")
        except ValueError as exc:
            raise ValueError(f"{path}: row {no}: {exc}") from None
    table = np.array(body)
    return InputSignal.zoh(table[:, 0], table[:, 1:])
