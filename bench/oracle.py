"""Independent correctness checks on what the ops wrote.

Artifacts: the stored verification residual must be within its stored
threshold, and the LPV realization ``A(p)(x - x_bar) + B(p)(u - u_bar)
+ V`` with ``p`` from the loaded scheduling map must reproduce the
benchmark's own numpy formula for ``f`` (likewise ``h``) at seeded
points of the declared box.

Trajectories: the states must follow a ``scipy.integrate.solve_ivp``
reference (DOP853 at 1e-12 tolerances) of the same formula, computed
once per scenario; outputs and inputs must match their formulas.  None
of this is timed.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

ARTIFACT_POINTS = 200
# relative to 1 + |f|; deferred entries converge to rel_tol 1e-8
RECON_TOL = 1e-7
# absolute, on states of order 1; the program integrates at rel 1e-8,
# abs 1e-10 and lands within about 1e-7 of the reference
TRAJ_TOL = 1e-5
# outputs and inputs recomputed from the CSV's own states and times
EXACT_TOL = 1e-12


def check_artifact(path: str, case, seed: int) -> tuple[list[str], float]:
    """(problems, worst relative reconstruction error)."""
    from lpvembed.modelfile import load_artifact

    m, sm, doc = load_artifact(path)
    problems = []
    report = doc["report"]
    if not report["verify"]["max_residual"] <= report["threshold"]:
        problems.append(f"{path}: stored residual "
                        f"{report['verify']['max_residual']!r} above "
                        f"threshold {report['threshold']!r}")
    names = [f"x{i + 1}" for i in range(case.nx)] + \
            [f"u{i + 1}" for i in range(case.nu)]
    lo = np.array([case.box[n][0] for n in names])
    hi = np.array([case.box[n][1] for n in names])
    rng = np.random.default_rng(seed)
    x_bar, u_bar = np.array(m.anchor.x_bar), np.array(m.anchor.u_bar)
    worst = 0.0
    for row in lo + (hi - lo) * rng.random((ARTIFACT_POINTS, len(names))):
        x, u = row[:case.nx], row[case.nx:]
        A, B, C, D = m.matrices(sm.evaluate(x, u))
        for got, ref in ((A @ (x - x_bar) + B @ (u - u_bar) + m.V,
                          case.f(x, u)),
                         (C @ (x - x_bar) + D @ (u - u_bar) + m.W,
                          case.h(x, u))):
            worst = max(worst, float(np.max(np.abs(got - ref)
                                            / (1.0 + np.abs(ref)))))
    if not worst <= RECON_TOL:
        problems.append(f"{path}: reconstruction error {worst:.3e} "
                        f"above {RECON_TOL:g}")
    return problems, worst


def reference(case, sc, t: np.ndarray) -> np.ndarray:
    """States of the formula at times ``t``, shape (len(t), nx)."""
    sol = solve_ivp(lambda tt, x: case.f(x, np.array([sc.u(tt)])),
                    (0.0, sc.t_end), np.array(sc.x0), method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=t)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y.T


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()                       # format_version comment
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def check_trajectory(path: str, case, sc, refs: dict,
                     lpv: bool) -> tuple[list[str], float]:
    """(problems, worst state error against the reference)."""
    header, data = read_csv(path)
    nx = case.nx
    expected = (["t"] + [f"x{i + 1}" for i in range(nx)] + ["y1", "u1"])
    if header[:len(expected)] != expected or (lpv != (len(header) > len(expected))):
        return [f"{path}: unexpected columns {header[:6]}..."], float("inf")
    t, x = data[:, 0], data[:, 1:1 + nx]
    y, u = data[:, 1 + nx:2 + nx], data[:, 2 + nx:3 + nx]
    key = (case.name, sc)
    if key not in refs:
        refs[key] = reference(case, sc, t)
    ref = refs[key]
    problems = []
    if ref.shape != x.shape:
        return [f"{path}: {len(t)} samples, reference has {len(ref)}"], \
            float("inf")
    err = float(np.max(np.abs(x - ref)))
    if not err <= TRAJ_TOL:
        problems.append(f"{path}: states off the reference by {err:.3e}")
    u_ref = sc.u(t)[:, None]
    if not np.max(np.abs(u - u_ref)) <= EXACT_TOL:
        problems.append(f"{path}: input column differs from the scenario")
    if not np.max(np.abs(y - case.h(x, u))) <= EXACT_TOL:
        problems.append(f"{path}: output column differs from h(x, u)")
    return problems, err

