"""Seeded model and scenario generators for the benchmark.

These live with the benchmark, not in ``lpvembed.synthetic``, so that a
change to the library cannot change the workload.  Each generator
returns a :class:`Case`: the ``.nlss`` text handed to the program and
an independent numpy formula for ``f`` that the correctness oracle
evaluates.  Coefficients are rounded to four decimals, so the floats
the program parses from the text are exactly the floats the formula
uses.

Structure is fixed per family and only coefficients vary with the seed,
so different seeds cost about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

CHAIN_PENDULUMS = 30
NETWORK_STATES = 8


@dataclass
class Case:
    name: str
    text: str
    nx: int
    nu: int
    box: dict              # name -> (lo, hi), as declared in the text
    f: Callable            # f(X, U) on arrays (..., nx), (..., nu)
    h: Callable            # h(X, U) -> (..., ny)


@dataclass(frozen=True)
class Scenario:
    """One simulate invocation: input expression, x0 and horizon."""

    amp: float
    freq: float
    x0: tuple
    t_end: float

    def input_expr(self) -> str:
        return f"{self.amp!r}*sin({self.freq!r}*t)"

    def u(self, t):
        return self.amp * np.sin(self.freq * t)

    def argv(self) -> list[str]:
        # one token, so argparse does not take a leading minus for a flag
        return ["--input", self.input_expr(),
                "--x0=" + ",".join(repr(v) for v in self.x0),
                "--t-end", repr(self.t_end)]


def _c(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _box_lines(box: dict) -> list[str]:
    return [f"box {n} {lo!r} {hi!r}" for n, (lo, hi) in box.items()]


def chain(seed: int, index: int, n: int = CHAIN_PENDULUMS) -> Case:
    """A chain of ``n`` coupled pendulums driven at the first one.

    Angle of pendulum i is x(2i-1), its rate x(2i).  Each has a
    ``sin(x_i)`` self term and ``sin(x_j - x_i)`` couplings to its
    neighbours; both orientations of every coupling appear, so the
    factor extraction schedules ``n + 2(n - 1)`` sinc terms.
    """
    rng = random.Random(f"chain-{seed}-{index}")
    g = [_c(rng, 3.0, 5.0) for _ in range(n)]
    d = [_c(rng, 0.4, 0.6) for _ in range(n)]
    k = [_c(rng, 0.8, 1.2) for _ in range(n - 1)]     # k[i] couples i, i+1
    b = _c(rng, 0.8, 1.2)
    nx = 2 * n

    lines = ["format_version 1", f"nx {nx}", "nu 1", "ny 1",
             "time continuous"]
    for i in range(n):
        th, om = f"x{2 * i + 1}", f"x{2 * i + 2}"
        rhs = f"-{g[i]!r}*sin({th}) - {d[i]!r}*{om}"
        for j, kij in ((i - 1, k[i - 1] if i > 0 else None),
                       (i + 1, k[i] if i < n - 1 else None)):
            if kij is not None:
                rhs += f" + {kij!r}*sin(x{2 * j + 1} - {th})"
        if i == 0:
            rhs += f" + {b!r}*u1"
        lines += [f"f{2 * i + 1} = {om}", f"f{2 * i + 2} = {rhs}"]
    lines.append(f"h1 = x{nx - 1}")
    box = {}
    for i in range(n):
        box[f"x{2 * i + 1}"] = (-3.0, 3.0)
        box[f"x{2 * i + 2}"] = (-4.0, 4.0)
    box["u1"] = (-2.0, 2.0)
    lines += _box_lines(box)

    g_a, d_a, k_a = np.array(g), np.array(d), np.array(k)

    def f(X, U):
        th, om = X[..., 0::2], X[..., 1::2]
        acc = -g_a * np.sin(th) - d_a * om
        coup = k_a * np.sin(th[..., 1:] - th[..., :-1])
        acc[..., :-1] += coup
        acc[..., 1:] -= coup
        acc[..., 0] += b * U[..., 0]
        out = np.empty_like(X)
        out[..., 0::2] = om
        out[..., 1::2] = acc
        return out

    def h(X, U):
        return X[..., nx - 2:nx - 1]

    return Case(f"chain{n}_{index}", "\n".join(lines) + "\n", nx, 1, box,
                f, h)


def network(seed: int, index: int, n: int = NETWORK_STATES) -> Case:
    """A ring of ``n`` damped states with saturating couplings.

    Terms: ``tanh(b*x_j)`` from the previous state on the ring (a 1-D
    entry with no closed form, so deferred to quadrature), ``1 -
    exp(c*x_i)`` self terms (closed form through expm1c) on every other
    state, and two ``sin(x_i)*x_k`` cross terms whose ``x_k*cos(x_i)``
    derivative leaves a 2-D deferred entry.
    """
    rng = random.Random(f"network-{seed}-{index}")
    a = [_c(rng, 1.0, 1.5) for _ in range(n)]
    ct = [_c(rng, 0.5, 0.9) for _ in range(n)]
    bt = [_c(rng, 0.8, 1.6) for _ in range(n)]
    ee = {i: _c(rng, 0.2, 0.4) for i in range(0, n, 2)}
    ce = {i: _c(rng, 0.3, 0.5) for i in range(0, n, 2)}
    # cross terms: state i gets s*sin(x_p)*x_q
    cross = {1: (4, 6, _c(rng, 0.1, 0.2)), 5: (0, 2, _c(rng, 0.1, 0.2))}
    bu = _c(rng, 0.8, 1.2)

    lines = ["format_version 1", f"nx {n}", "nu 1", "ny 1",
             "time continuous"]
    for i in range(n):
        prev = (i - 1) % n
        rhs = (f"-{a[i]!r}*x{i + 1} + {ct[i]!r}*tanh({bt[i]!r}*x{prev + 1})")
        if i in ee:
            rhs += f" + {ee[i]!r}*(1 - exp({ce[i]!r}*x{i + 1}))"
        if i in cross:
            p, q, s = cross[i]
            rhs += f" + {s!r}*sin(x{p + 1})*x{q + 1}"
        if i == 0:
            rhs += f" + {bu!r}*u1"
        lines.append(f"f{i + 1} = {rhs}")
    lines.append(f"h1 = x{n}")
    box = {f"x{i + 1}": (-2.0, 2.0) for i in range(n)}
    box["u1"] = (-2.0, 2.0)
    lines += _box_lines(box)

    prev = [(i - 1) % n for i in range(n)]
    a_a, ct_a, bt_a = np.array(a), np.array(ct), np.array(bt)

    def f(X, U):
        out = -a_a * X + ct_a * np.tanh(bt_a * X[..., prev])
        for i in ee:
            out[..., i] += ee[i] * (1 - np.exp(ce[i] * X[..., i]))
        for i, (p, q, s) in cross.items():
            out[..., i] += s * np.sin(X[..., p]) * X[..., q]
        out[..., 0] += bu * U[..., 0]
        return out

    def h(X, U):
        return X[..., n - 1:n]

    return Case(f"network{n}_{index}", "\n".join(lines) + "\n", n, 1, box,
                f, h)


def scenario(seed: int, case: Case, t_end: float) -> Scenario:
    """Seeded sinusoidal drive and initial state for ``case``.

    Narrow ranges keep the solver's step count within a few percent
    across seeds.
    """
    rng = random.Random(f"scenario-{case.name}-{seed}")
    return Scenario(amp=_c(rng, 0.9, 1.1), freq=_c(rng, 1.0, 1.2),
                    x0=tuple(_c(rng, -0.5, 0.5) for _ in range(case.nx)),
                    t_end=t_end)
