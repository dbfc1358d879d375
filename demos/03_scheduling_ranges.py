"""Scheduling ranges: where do the p variables live?

Polytopic LPV methods need a bounding box for p.  The range estimator
grids each scheduling entry over its own dependency footprint (the state
and input components it actually uses), records the raw extrema, and
reports a slightly widened box as a safety margin for downstream design.
"""

import argparse

from lpvembed import estimate_range, extract_factor
from lpvembed.factorize import factorize
from lpvembed.models import load_bundled


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=10001,
                    help="grid points per dimension")
    args = ap.parse_args()

    doc = load_bundled("unbalanced_disk")
    m, sm = extract_factor(factorize(doc.model))
    print("declared box:")
    for name, (lo, hi) in doc.box.items():
        print(f"  {name} in [{lo:.6f}, {hi:.6f}]")
    print(f"\nscheduling entries and their footprints:")
    for i, (s, fp) in enumerate(zip(sm.entry_strings(), sm.footprints)):
        print(f"  p{i+1} = {s}   depends on {', '.join(fp)}")

    rb = estimate_range(sm, doc.box, grid_per_dim=args.grid)
    print(f"\nranges on a {args.grid}-point grid per dimension:")
    for i, (raw, rep) in enumerate(zip(rb.raw, rb.reported)):
        print(f"  p{i+1}: raw [{raw[0]:.6f}, {raw[1]:.6f}]")
        print(f"      reported [{rep[0]:.6f}, {rep[1]:.6f}]  "
              f"(0.5% endpoint widening)")

    # the angle never leaving a quarter turn shrinks the box a lot
    narrow = dict(doc.box)
    narrow["x1"] = (-0.7853981633974483, 0.7853981633974483)
    rb2 = estimate_range(sm, narrow, grid_per_dim=args.grid)
    print("\nsame entry when the angle stays within +-pi/4:")
    print(f"  p1: raw [{rb2.raw[0][0]:.6f}, {rb2.raw[0][1]:.6f}]")
    print("tighter operating boxes give tighter scheduling polytopes.")


if __name__ == "__main__":
    main()
