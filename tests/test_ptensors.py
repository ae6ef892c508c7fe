from math import comb

import pytest

from cubichodge.jets import JetPoly
from cubichodge.ptensors import PTensorTable, top_coefficient_value
from cubichodge.ratio import Q
from cubichodge.sigma import SigmaPoly
from cubichodge.theta import ThetaPoly

M = 12


@pytest.fixture(scope="module")
def table():
    return PTensorTable(M)


def sconst(c):
    return JetPoly.const(c, M)


class TestRow0:
    def test_p00_is_theta(self, table):
        assert table.row0(0) == ThetaPoly.theta(M)

    def test_p01(self, table):
        tp = table.row0(1)
        assert tp.degree == 2
        assert tp.coeff(2) == sconst(Q(1, 2)) and tp.coeff(1) == sconst(Q(-1, 2))

    def test_append_only(self, table):
        before = table.row0(2)
        table.ensure_row0(6)
        assert table.row0(2) == before


class TestPtilde:
    def test_p11_closed_form(self, table):
        s1 = SigmaPoly.s1()
        expect = ThetaPoly(M, [
            JetPoly.zero(M),
            JetPoly.from_sigma(SigmaPoly.const(Q(1, 8)) - s1 * Q(1, 12), M),
            JetPoly.from_sigma(SigmaPoly.const(Q(-3, 8)) + s1 * Q(1, 12), M),
            sconst(Q(1, 4)),
        ])
        assert table.ptilde(1, 1) == expect

    def test_p10_equals_p01(self, table):
        assert table.ptilde(1, 0) == table.row0(1)

    def test_symmetry_to_10(self, table):
        for i in range(11):
            for j in range(i, 11 - i):
                assert table.ptilde(i, j) == table.ptilde(j, i), (i, j)

    def test_degree_bound_to_10(self, table):
        for i in range(11):
            for j in range(11 - i):
                assert table.ptilde(i, j).degree <= i + j + 1

    def test_jet_free(self, table):
        for i in range(6):
            for j in range(6 - i):
                assert table.ptilde(i, j).max_jet_index() < 0

    def test_top_coefficients(self, table):
        for i in range(6):
            for j in range(6 - i):
                top = table.ptilde(i, j).coeff(i + j + 1).as_sigma()
                assert top == SigmaPoly.const(top_coefficient_value(i, j))

    def test_no_constant_row(self, table):
        for i in range(5):
            for j in range(5):
                assert not table.ptilde(i, j).coeff(0)


def dressed(table, a, b, memo=None):
    """The dressed P_{a,b} = sum_{k,l} f_{a,k} f_{b,l} P~_{k,l}, formed term by term:
    the reference for PTensorTable.contract, which never forms it."""
    if memo is not None and (a, b) in memo:
        return memo[a, b]
    f = table.fjets.f
    out = ThetaPoly.sum(table.cutoff, [table.ptilde(k, l) * (f(a, k) * f(b, l))
                                       for k in range(a + 1) for l in range(b + 1)
                                       if f(a, k) and f(b, l)])
    if memo is not None:
        memo[a, b] = out
    return out


class TestDressed:
    def test_p00(self, table):
        assert dressed(table, 0, 0) == ThetaPoly.theta(M)

    def test_p01(self, table):
        z1 = JetPoly.z(1, M)
        expect = table.row0(1) * z1
        assert dressed(table, 0, 1) == expect
        assert dressed(table, 0, 1).coeff(2) == z1 * Q(1, 2)

    def test_p11_single_dressing_term(self, table):
        z1 = JetPoly.z(1, M)
        assert dressed(table, 1, 1) == table.ptilde(1, 1) * (z1 * z1)

    def test_jet_bound(self, table):
        for i in range(4):
            for j in range(4):
                assert dressed(table, i, j).max_jet_index() <= max(i, j, -1)

    def test_contract_matches_dressed_sum(self, table):
        z2 = JetPoly.z(2, M)
        weights = {(0, 2): Q(3), (1, 0): z2, (2, 1): z2, (3, 3): z2 * Q(-1, 2)}
        expect = ThetaPoly.sum(M, [dressed(table, a, b) * w for (a, b), w in weights.items()])
        assert table.contract(weights) == expect


def dressed_lhs(solver, i, memo):
    """L_i = derive^i(Theta) + sum_{j=1}^i C(i, j) P_{j-1, i-j+1} over dressed P."""
    return ThetaPoly.sum(solver.cutoff, [solver.dtheta(i)] + [
        dressed(solver.table, j - 1, i - j + 1, memo) * comb(i, j) for j in range(1, i + 1)])


def dressed_rhs(solver, g, lower, memo):
    """RHS_g for g >= 2 over dressed P, summed over i <= j by the symmetry of P."""
    M = solver.cutoff
    grads = [None] + [fe.gradient for fe in lower[: g - 1]]
    top_prev = 3 * (g - 1) - 2
    parts = [solver.derived_base(i + 2) * grads[g - 1][i]
             for i in range(top_prev + 1) if grads[g - 1][i]]
    for i in range(top_prev + 1):
        for j in range(i, top_prev + 1):
            w = JetPoly.sum(M, [grads[g - 1][i].partial(j)] + [
                grads[k][i] * grads[g - k][j] for k in range(1, g)
                if i < len(grads[k]) and j < len(grads[g - k])])
            if w:
                parts.append(dressed(solver.table, i + 1, j + 1, memo) * (w * Q(1, 2) if i == j else w))
    return ThetaPoly.sum(M, parts)


def test_contracted_loop_terms_match_dressed_route(energies_g5):
    from cubichodge.loop import LoopSolver

    solver = LoopSolver(5)
    assert solver.cutoff == energies_g5[0].body.cutoff
    memo = {}
    for i in range(3 * 5 - 1):
        assert solver.lhs_coefficient(i) == dressed_lhs(solver, i, memo), i
    for g in range(2, 6):
        assert solver.rhs_genus(g, energies_g5) == dressed_rhs(solver, g, energies_g5, memo), g


class TestXiOracle:
    def test_row0_against_shift_expansion(self, table):
        from cubichodge.oracles import row0_shift_oracle

        ok, detail = row0_shift_oracle(table, 5, 6)
        assert ok, detail


# sha256 of PTensorTable.dump_json() after a genus-4 solve, frozen before the
# sparse kernel's key and coefficient layout changed; P~ entries above genus 3
# are checked by nothing else.
FROZEN_PTILDE_G4_SHA256 = "3b8295d56ae4c90380ee2611c1ff86ae0e0c4e8f67f50b3de9ae1b7ecb898f02"


def test_frozen_ptilde_g4():
    import hashlib
    import json

    from cubichodge.loop import LoopSolver

    solver = LoopSolver(4)
    solver.compute(4)
    blob = json.dumps(solver.table.dump_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == FROZEN_PTILDE_G4_SHA256


# sha256 of row 0 of P~ for n = 0..25, frozen before row 0 was rebuilt from the
# one-step recurrence for Phi d_z^m (1/Phi); the genus-7 anchors reach only n = 19.
FROZEN_ROW0_N25_SHA256 = "70727c369330b845fa4804255ba559cc53a5fc3a7e6808a5dc4c0919f8f212f7"


def test_frozen_row0_n25():
    import hashlib
    import json

    from cubichodge.textform import jet_json

    table = PTensorTable(29)
    table.ensure_row0(25)
    blob = json.dumps([[jet_json(c) for c in table.row0(n).coeffs] for n in range(26)],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == FROZEN_ROW0_N25_SHA256
