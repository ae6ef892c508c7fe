#!/usr/bin/env python3
"""Expand H_g back into t-space and read off cubic Hodge intersection data.

The jets z_j are replaced by t0-derivatives of the genus-zero series v(t);
each t-monomial coefficient is then a polynomial in (s1, s3) whose parts
obey the dimension constraint sum(i) + a + 3b = 3g - 3 + n.
"""
from cubichodge import LoopSolver, dimension_check, first_flow_check, hodge_expand, intersection_table
from cubichodge.textform import jet_text

energies = LoopSolver(2).compute(2)

print("genus 1, normalized bracket values (automorphism factors included):")
for idx, c in intersection_table(energies[0], 2, 3, normalized=True):
    print(f"   tau{idx}: {jet_text(c)}")
print()

series = hodge_expand(energies[1], 3, 4)
print("genus 2, constant term (the one-point-free content):",
      jet_text(series.constant_term()))

for g in (1, 2):
    ok, violation = dimension_check(g, hodge_expand(energies[g - 1], 3, 4))
    print(f"dimension constraint at genus {g}:", "holds" if ok else violation)

print("first deformed flow consistent at order eps^2:",
      first_flow_check(energies[0]))
