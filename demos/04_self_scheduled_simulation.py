"""Self-scheduled simulation: the embedding reproduces the trajectory.

Runs the benchmark scenario twice - once on the nonlinear model, once on
the LPV model closed over its own scheduling map p = eta(x, u) - with the
same solver settings, then reports the per-state RMSE.  Because the
embedding is exact, the two runs agree to integration accuracy.
"""

import argparse
import os
import tempfile

import numpy as np

from lpvembed import extract_factor
from lpvembed.factorize import factorize
from lpvembed.models import load_bundled
from lpvembed.sim import (
    InputSignal, SolverConfig, rmse, simulate_lpv_self_scheduled,
    simulate_nl, write_trajectory_csv,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-end", type=float, default=15.0)
    ap.add_argument("--rel-tol", type=float, default=1e-8)
    args = ap.parse_args()

    doc = load_bundled("unbalanced_disk")
    m, sm = extract_factor(factorize(doc.model))
    u = InputSignal.from_exprs(["2*sin(0.2*pi*t)"], 1)
    cfg = SolverConfig(rel_tol=args.rel_tol)

    print(f"scenario: x0 = (0, 0), u(t) = 2 sin(0.2 pi t), "
          f"t in [0, {args.t_end:g}] s")
    a = simulate_nl(doc.model, [0.0, 0.0], u, args.t_end, cfg)
    b = simulate_lpv_self_scheduled(m, sm, [0.0, 0.0], u, args.t_end, cfg)

    errs = rmse(a, b)
    print(f"\nnonlinear run: {len(a.t)} output samples")
    print(f"self-scheduled run records p alongside: p shape {b.p.shape}")
    for i, v in enumerate(errs):
        print(f"  RMSE x{i+1}: {v:.3e}")
    print(f"scheduling stayed within "
          f"[{b.p.min():.4f}, {b.p.max():.4f}] during the run")

    peak = float(np.max(np.abs(a.x[:, 0])))
    print(f"peak |angle| reached: {peak:.3f} rad - far outside any "
          f"small-angle approximation, yet the LPV run tracks exactly")

    out = os.path.join(tempfile.gettempdir(), "lpv_benchmark_run.csv")
    write_trajectory_csv(b, out)
    print(f"\ntrajectory with scheduling columns written to {out}")


if __name__ == "__main__":
    main()
