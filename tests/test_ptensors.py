from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubichodge.jets import JetPoly
from cubichodge.linsolve import TriangularSystem
from cubichodge.ptensors import PTensorTable, top_coefficient_value
from cubichodge.ratio import Q
from cubichodge.theta import ThetaPoly

from powertheta import PowerRoute, PowerTheta


@pytest.fixture(scope="module")
def table():
    return PTensorTable(10)


@pytest.fixture(scope="module")
def route(table):
    return PowerRoute(table)


def sconst(c):
    return JetPoly.const(c)


class TestRow0:
    def test_p00_is_theta(self, table):
        assert table.ptilde(0, 0) == ThetaPoly.theta()

    def test_p01(self, table):
        tp = table.ptilde(0, 1)
        assert tp.degree == 2
        assert tp.powers() == [JetPoly.zero(), sconst(Q(-1, 2)), sconst(Q(1, 2))]

    def test_size_is_fixed(self, table):
        with pytest.raises(ValueError):
            table.ptilde(0, 11)
        with pytest.raises(ValueError):
            table.ptilde(6, 5)


class TestPtilde:
    def test_p11_closed_form(self, table):
        s1 = JetPoly.monomial(1, (1, 0), {})
        expect = [
            JetPoly.zero(),
            JetPoly.const(Q(1, 8)) - s1 * Q(1, 12),
            JetPoly.const(Q(-3, 8)) + s1 * Q(1, 12),
            sconst(Q(1, 4)),
        ]
        assert table.ptilde(1, 1).powers() == expect

    def test_p10_equals_p01(self, table):
        assert table.ptilde(1, 0) == table.ptilde(0, 1)

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
                top = table.ptilde(i, j).powers()[i + j + 1]
                assert top == JetPoly.const(top_coefficient_value(i, j))

    def test_no_constant_row(self, table):
        for i in range(5):
            for j in range(5):
                assert not table.ptilde(i, j).powers()[0]

    def test_ptilde_matches_power_recursion(self, table, route):
        # every entry with i + j <= 10, recursed in powers of Theta from row 0
        for i in range(11):
            for j in range(11 - i):
                assert PowerTheta.of(table.ptilde(i, j)) == route.ptilde(i, j), (i, j)


class TestDressed:
    def test_p00(self, route):
        assert route.dressed(0, 0) == PowerTheta.theta()

    def test_p01(self, table, route):
        z1 = JetPoly.z(1)
        expect = PowerTheta.of(table.ptilde(0, 1)) * z1
        assert route.dressed(0, 1) == expect
        assert route.dressed(0, 1).coeff(2) == z1 * Q(1, 2)

    def test_p11_single_dressing_term(self, table, route):
        z1 = JetPoly.z(1)
        assert route.dressed(1, 1) == PowerTheta.of(table.ptilde(1, 1)) * (z1 * z1)

    def test_jet_bound(self, route):
        for i in range(4):
            for j in range(4):
                assert max((c.max_index() for c in route.dressed(i, j).coeffs),
                           default=-1) <= max(i, j, -1)

    def test_contract_matches_dressed_sum(self, table, route):
        z2 = JetPoly.z(2)
        weights = {(0, 2): sconst(Q(3)), (1, 0): z2, (2, 1): z2, (3, 3): z2 * Q(-1, 2)}
        expect = PowerTheta.sum([route.dressed(a, b) * w for (a, b), w in weights.items()])
        assert PowerTheta.of(table.contract(weights)) == expect

    def test_derive_shifts_either_index(self, route):
        # derive(P_{a,b}) = P_{a+1,b} + P_{a,b+1}, on which L_i's recursion rests
        for a in range(6):
            for b in range(6 - a):
                expect = route.dressed(a + 1, b) + route.dressed(a, b + 1)
                assert route.dressed(a, b).derive() == expect, (a, b)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_dump_is_fixed_by_the_table_size(genus):
    # row 0 and every (i, j) with i, j >= 1, i + j <= n, whatever a solve has read
    from cubichodge.loop import LoopSolver

    solver = LoopSolver(genus)
    n = solver.table.n_max
    fresh = PTensorTable(n).dump_json()
    solver.compute(genus)
    assert solver.table.dump_json() == fresh
    assert len(fresh["ptilde"]) == n + 1 + n * (n - 1) // 2


@pytest.fixture(scope="module")
def route_g5():
    """A genus-5 solver, unsolved, and the power route over its P-table."""
    from cubichodge.loop import LoopSolver

    solver = LoopSolver(5)
    return solver, PowerRoute(solver.table)


def test_contracted_loop_terms_match_dressed_route(route_g5, energies_g5):
    solver, route = route_g5
    for i in range(3 * 5 - 1):
        assert PowerTheta.of(solver.lhs_coefficient(i)) == route.lhs(i), i
    for g in range(1, 6):
        assert PowerTheta.of(solver.rhs_genus(g, energies_g5)) == route.rhs(g, energies_g5), g


def test_solve_reads_no_lower_triangle():
    # contract folds (k, l) and (l, k) onto k <= l: no P~_{k,l} with k > l is
    # read or built
    from cubichodge.loop import LoopSolver

    solver = LoopSolver(5)
    solver.compute(5)
    keys = list(solver.table._ptilde)
    assert all(k <= l for k, l in keys)
    assert len(keys) == 56  # 71 when both triangles were read


def test_power_rows_solve_to_the_gradients(route_g5, energies_g5):
    # the power route's L_i as the columns (entry (a, i) is the Theta^a
    # coefficient of L_i, a = 1..3g-1), solved by the same back substitution,
    # give the gradient of each solved H_g
    _, route = route_g5
    for g in range(1, 6):
        columns = [route.lhs(i) for i in range(3 * g - 1)]
        solved = TriangularSystem(columns, route.rhs(g, energies_g5)).solve()
        assert solved == energies_g5[g - 1].gradient, g


def naive_theta_xi_coeffs(coeffs, order: int, zero=Q(0)):
    """xi-series of sum_k c_k Theta^k by repeated +, one c_k C(k+m-1, m) at
    a time."""
    out = [zero] * (order + 1)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            out[0] += c
            continue
        for m in range(order + 1):
            out[m] += c * comb(k + m - 1, m)
    return out


class TestXiOracle:
    def test_row0_against_shift_expansion(self):
        from cubichodge.oracles import row0_shift_oracle

        ok, detail = row0_shift_oracle()
        assert ok, detail

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=30), max_size=8),
           st.integers(0, 10))
    def test_theta_xi_coeffs_on_rationals(self, coeffs, order):
        from cubichodge.oracles import theta_xi_coeffs

        assert theta_xi_coeffs(coeffs, order) == naive_theta_xi_coeffs(coeffs, order)

    def test_theta_xi_coeffs_on_jetpolys(self, table):
        # the xi route the row-0 oracle runs on JetPolys, read straight from
        # the pi_m coefficients, against the Theta powers expanded in xi one
        # binomial at a time; i + j <= 8 covers every entry either oracle reads
        from cubichodge.oracles import pi_xi_weights

        zero = JetPoly.zero()
        for i in range(9):
            for j in range(9 - i):
                tp = table.ptilde(i, j)
                for order in (0, 3, 8, 10):
                    got = [JetPoly.sum(tp.coeffs, ws)
                           for ws in pi_xi_weights(len(tp.coeffs), order)]
                    assert got == naive_theta_xi_coeffs(tp.powers(), order, zero), (i, j, order)

    @pytest.mark.parametrize("pair", [(1, 2), (2, 3)])
    def test_pi_xi_weights_on_the_bridge_entries(self, table, pair):
        # the route the bridge runs on rationals: P~_{i,j}, i + j <= 4, at
        # the pair's (s1, s3), to xi^10
        from cubichodge.oracles import _rational_sums, pi_xi_weights
        from cubichodge.virasoro import RationalParams

        s1, s3 = RationalParams(*pair).sigma_values()
        for i in range(5):
            for j in range(5 - i):
                tp = table.ptilde(i, j)
                coeffs = [c.evaluate(s1, s3) for c in tp.coeffs]
                got = _rational_sums(coeffs, pi_xi_weights(len(coeffs), 10))
                want = naive_theta_xi_coeffs([c.evaluate(s1, s3) for c in tp.powers()], 10)
                assert got == want, (i, j)

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=30), min_size=1,
                    max_size=9), st.integers(0, 12))
    def test_pi_xi_weights_on_rationals(self, coeffs, order):
        from cubichodge.oracles import _rational_sums, pi_xi_weights

        powers = ThetaPoly([sconst(c) for c in coeffs]).powers()
        want = naive_theta_xi_coeffs([c.evaluate(0, 0) for c in powers], order)
        assert _rational_sums(coeffs, pi_xi_weights(len(coeffs), order)) == want

    def test_row0_oracle_fails_on_a_changed_coefficient(self, monkeypatch):
        # one s1 coefficient of P~_{0,5} changed: the xi^0 coefficient moves by s1
        import cubichodge.oracles as oracles

        class Changed(PTensorTable):
            def ptilde(self, i, j):
                tp = super().ptilde(i, j)
                if (i, j) != (0, 5):
                    return tp
                return ThetaPoly([tp.coeffs[0] + JetPoly.monomial(1, (1, 0), {}), *tp.coeffs[1:]])

        monkeypatch.setattr(oracles, "PTensorTable", Changed)
        ok, detail = oracles.row0_shift_oracle()
        assert not ok
        assert detail.startswith("P~(0,5) at xi^0: "), detail


def fraction_row0(n_max: int) -> list:
    """Row 0 of P~ by the double sum with one Fraction weight
    (-1)^d (2d-1)!! / (2^d m! d!), d = n' - m, per part."""
    from math import factorial

    from cubichodge.phiseries import double_factorial_odd, phi_d_inv_all

    pdi = [s.coefficients() for s in phi_d_inv_all(n_max, n_max)]
    acc = [{} for _ in range(n_max + 1)]
    for np_ in range(n_max + 1):
        zs = {}
        for m in range(np_ + 1):
            d = np_ - m
            cm = (-1) ** d * double_factorial_odd(d) / (Q(2) ** d * factorial(m) * factorial(d))
            for (r,), c in pdi[m].items():
                if d + r <= n_max:
                    zs.setdefault(d + r, []).append(c * cm)
        for n, parts in zs.items():
            acc[n][np_ + 1] = JetPoly.sum(parts)
    return [ThetaPoly([acc[n].get(m, JetPoly.zero()) for m in range(1, max(acc[n], default=0) + 1)])
            for n in range(n_max + 1)]


class TestIntWeights:
    """The int-weight constructions of P~ against references kept here."""

    def test_row0_matches_fraction_weights(self):
        from cubichodge.ptensors import _build_row0

        assert _build_row0(13) == fraction_row0(13)

    def test_higher_rows_match_the_literal_recursion(self):
        table = PTensorTable(13)
        for i in range(1, 14):
            for j in range(14 - i):
                want = table.ptilde(i - 1, j).xi_euler() - table.ptilde(i - 1, j + 1)
                assert table.ptilde(i, j) == want, (i, j)

    @pytest.mark.parametrize("entry,degree", [((0, 1), 6), ((0, 2), 5)])
    def test_entries_of_unequal_degree(self, entry, degree):
        # pi_5 added to either entry that P~_{1,1} reads: the shifted first
        # entry or the second is the longer one
        extra = ThetaPoly([JetPoly.zero()] * 4 + [JetPoly.monomial(Q(2, 3), (1, 0), {})])

        class Changed(PTensorTable):
            def ptilde(self, i, j):
                tp = super().ptilde(i, j)
                return tp + extra if (i, j) == entry else tp

        table = Changed(4)
        want = table.ptilde(0, 1).xi_euler() - table.ptilde(0, 2)
        assert table.ptilde(1, 1) == want
        assert want.degree == degree


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

    table = PTensorTable(25)
    blob = json.dumps([[jet_json(c) for c in table.ptilde(0, n).powers()] for n in range(26)],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == FROZEN_ROW0_N25_SHA256


def test_size_guard():
    """No exponent of a table passes n_max + 1, which a table past N_MAX
    could push to the slot edge: it raises, one at N_MAX is made (its rows
    are built on first read).  A small table reaches n_max."""
    from cubichodge.ptensors import N_MAX
    from cubichodge.sparse import SLOT_HALF, largest_exponent

    assert N_MAX + 1 == SLOT_HALF - 1
    assert PTensorTable(N_MAX).n_max == N_MAX
    with pytest.raises(ValueError, match="n_max"):
        PTensorTable(N_MAX + 1)
    n = 6
    table = PTensorTable(n)
    tops = [largest_exponent(c.terms) for i in range(n + 1) for j in range(n + 1 - i)
            for c in table.ptilde(i, j).coeffs]
    tops += [largest_exponent(table.f(i, j).terms) for i in range(n + 1) for j in range(i + 1)]
    assert max(tops) == n
