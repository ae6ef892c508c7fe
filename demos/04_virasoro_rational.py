#!/usr/bin/env python3
"""The rational case (K1, K2): operators, constants and the two B~ routes.

The Virasoro operators act on a truncated Fock space in x and s_k with
exact coefficients; their commutators close exactly.  The same B~ tensors
arise once from residue sums A_{k,n} and once from the sigma-specialized
P~ table, and the two series agree term by term.
"""
from cubichodge import RationalParams, a_kn, commutator_grid, monomial_basis, v_rational
from cubichodge.oracles import specialization_bridge
from cubichodge.ptensors import PTensorTable

params = RationalParams(2, 1)
print(f"(K1, K2) = (2, 1): h = {params.h}, K = {params.kconst}")
print("V_1(0) =", v_rational(params, 1)(0))
print("A_{0,n} / K^n for n <= 6:", [a_kn(params, 0, n) / params.kconst**n for n in range(7)])
print()

bound = 2 * params.h + 2
basis = monomial_basis(params, bound + 6 * params.h, bound, 3)
bad = [cell for cell, term in commutator_grid(params, basis, 3).items() if term is not None]
print(f"commutators [L_m, L_n] = (m - n) L_(m+n) on {len(basis)} basis monomials:",
      "all pass" if not bad else f"failures at {bad}")

table = PTensorTable(3)
for pair in ((1, 2), (2, 3), (3, 4)):
    ok, detail = specialization_bridge(RationalParams(*pair), table, 4, 8)
    print(f"B~ vs sigma-specialized P~ for (K1,K2)={pair}:", "match" if ok else detail)
