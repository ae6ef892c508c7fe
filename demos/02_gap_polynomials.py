#!/usr/bin/env python3
"""Gap polynomials R_g and their Faber-type leading parts.

Substituting the jets of log x (z_j -> (-1)^(j-1) (j-1)!) into H_g strips
the x-power off every monomial at once, so R_g comes out exactly.  Its
top-degree part is pinned by Bernoulli data.
"""
from cubichodge import JetPoly, LoopSolver, faber_leading, h1_gap_check, r_poly
from cubichodge.textform import jet_text

energies = LoopSolver(4).compute(4)

print("genus-1 single log term: coefficient (s1 - 1)/24 ->",
      "confirmed" if h1_gap_check(energies[0]) else "BROKEN")
print()

for g in (2, 3, 4):
    rg = r_poly(energies[g - 1])
    # R_g is a JetPoly without jets, graded by deg s1 = 1, deg s3 = 3
    degree = max(rg.weighted_degrees(lambda k: 0, s1_weight=1, s3_weight=3))
    top = JetPoly({key: c for key, c in rg.items() if key[0] + 3 * key[1] == 3 * g - 3})
    print(f"R_{g} (degree {degree} <= {3 * g - 3}):")
    print("   ", jet_text(rg))
    assert top == faber_leading(g)
    print(f"    top part equals the Bernoulli closed form: {jet_text(top)}")
    print()
