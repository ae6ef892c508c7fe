#!/usr/bin/env python3
"""Solve the loop equation genus by genus and inspect the free energies.

Every coefficient is an exact rational; the genus-2 result reproduces the
classical expression ending in (s1^3/17280 - s3/34560) z1^2.
"""
from cubichodge import LoopSolver
from cubichodge.textform import free_energy_text, jet_latex

solver = LoopSolver(3)
energies = solver.compute(3)

for fe in energies:
    print(f"H_{fe.genus} ({len(fe.body.terms)} terms"
          f"{' + log' if fe.log_z1_coeff is not None else ''}):")
    print("   ", free_energy_text(fe.genus, fe.body, fe.log_z1_coeff))
    print()

print("Genus-2 in LaTeX, for comparison with the literature:")
print("   ", jet_latex(energies[1].body))

# The defining identity in Theta holds on every row, not just the solved ones.
for g in (1, 2, 3):
    assert not solver.residual(g, energies), g
print("\nloop-equation residual vanishes identically for g = 1, 2, 3")

h3 = energies[2].body
assert h3.weighted_degrees(lambda k: k) == {4}
assert h3.weighted_degrees(lambda k: k - 1, s1_weight=1, s3_weight=3) == {6}
print("H_3 carries both gradings: degree 4 in jet weights, 6 in the dual weights")
