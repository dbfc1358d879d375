"""When no closed form exists, entries defer to adaptive quadrature.

The factorizer integrates each Jacobian entry along the line from the
anchor using a table of exact rules (polynomials in the line parameter,
sin/cos/exp of a linear argument, constant coefficients).  Entries the
table cannot handle stay exact too: they become deferred integrals
evaluated on demand by adaptive Gauss-Kronrod quadrature, and the
conversion reports a warning naming each one.
"""

import math

from lpvembed import extract_factor, verify_embedding
from lpvembed.factorize import DeferredIntegral, factorize
from lpvembed.models import load_bundled


def main():
    doc = load_bundled("tanh_example")
    model = doc.model
    print("model:")
    for i, e in enumerate(model.f):
        print(f"  f{i+1} = {e}")
    for i, e in enumerate(model.h):
        print(f"  h{i+1} = {e}")

    fs = factorize(model)
    print("\nconversion warnings:")
    for w in fs.warnings:
        print(f"  {w}")

    entry = fs.C_bar.entries[0][0]
    assert isinstance(entry, DeferredIntegral)
    print(f"\nthe output map entry is a deferred integral: {entry}")
    print("its exact value is tanh(x1)/x1, which has no elementary")
    print("antiderivative in the line parameter - quadrature evaluates it:")
    print(f"  {'x1':>6}  {'deferred entry':>18}  {'tanh(x1)/x1':>18}")
    for x in (-3.0, -1.0, 0.5, 2.0):
        got = entry.at(x)
        ref = math.tanh(x) / x
        print(f"  {x:6.1f}  {got:18.15f}  {ref:18.15f}")
    at0 = entry.at(0.0)
    print(f"  {0.0:6.1f}  {at0:18.15f}  {'1 (limit)':>18}")
    print("the removable singularity at x1 = 0 costs nothing: the")
    print("integrand is constant there and the quadrature is exact.")

    m, sm = extract_factor(fs)
    rep = verify_embedding(model, m, sm, samples=1000, box=doc.box, seed=0)
    print(f"\nembedding residual with quadrature entries: "
          f"{rep.max_residual:.3e}")


if __name__ == "__main__":
    main()
