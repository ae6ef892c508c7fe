import pytest

from cubichodge import virasoro
from cubichodge.cli import main
from cubichodge.commutators import OperatorImages, commutator_grid
from cubichodge.ratio import Q
from cubichodge.virasoro import (BtildeTable, FockPoly, RationalParams, TruncationViolation,
                                 a_kn, btilde_row0, c_float, c_pair, c_ratio,
                                 commutator_check, monomial_basis, v_rational, virasoro_apply)

P21 = RationalParams(2, 1)
P12 = RationalParams(1, 2)


class TestParams:
    def test_k_constant(self):
        assert P21.kconst == Q(27, 4)

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            RationalParams(2, 4)

    def test_nstar_21(self):
        # excludes 0 and everything congruent to -K2 = 2 mod 3
        assert P21.nstar_upto(9) == [1, 3, 4, 6, 7, 9]

    def test_nstar_12(self):
        # K1 = 1: negative index -1 is included, 1 mod 3 is excluded
        assert P12.nstar_upto(8) == [-1, 2, 3, 5, 6, 8]

    def test_decompose_and_b(self):
        assert P21.decompose(1) == (1, 0) and P21.b(1) == Q(1, 2)
        assert P21.decompose(4) == (1, 1) and P21.b(4) == Q(3, 2)
        assert P21.decompose(3) == (0, 1) and P21.b(3) == Q(1)
        assert P12.decompose(-1) == (-1, 0) and P12.b(-1) == Q(1, 2)
        assert P12.decompose(2) == (-1, 1) and P12.b(2) == Q(3, 2)

    def test_unique_decomposition(self):
        for params in (P21, P12, RationalParams(3, 4)):
            for k in params.nstar_upto(30):
                alpha, ell = params.decompose(k)
                assert alpha + params.h * ell == k
                assert -(params.k2 - 1) <= alpha <= params.k1 - 1 and ell >= 0

    def test_g_matrix(self):
        p = RationalParams(3, 2)
        assert p.gpair(0, 0) == Q(1)
        assert p.gpair(1, 2) == Q(2, 5)
        assert p.gpair(1, 1) == 0
        assert p.gpair(-1, -1) == Q(3, 5)
        assert p.gpair(1, -1) == 0

    def test_sigma_values(self):
        s1, s3 = P21.sigma_values()
        assert s1 == Q(1, 3) - Q(1, 2) - 1
        assert s3 == Q(2, 27) - Q(2, 8) - 2


class TestVRational:
    def test_v1_at_zero(self):
        assert v_rational(P21, 1)(0) == Q(4, 9)

    def test_v0_is_one(self):
        assert v_rational(P21, 0)(Q(5, 7)) == Q(1)

    def test_telescoping(self):
        v1, v3 = v_rational(P21, 1), v_rational(P21, 3)
        x = Q(17, 5)
        assert v3(x) == v1(x) * v1(x - 1) * v1(x - 2)

    def test_asymptotic_series_oracle(self):
        from cubichodge.oracles import v1_asymptotic_check

        for params in (P12, RationalParams(2, 3), RationalParams(3, 4)):
            ok, detail = v1_asymptotic_check(params, 8)
            assert ok, detail


class TestCConstants:
    def test_c_int(self):
        assert P21.c_int(1) == 3  # C(3, 2)
        assert P21.c_int(2) == 15

    def test_aligned_ratio_identity(self):
        # c_h = K V_1(0): 3 = (27/4)(4/9)
        assert P21.kconst * v_rational(P21, 1)(0) == P21.c_int(1)

    def test_c_ratio_trivial(self):
        assert c_ratio(P21, 1, 0) == Q(1)

    def test_c_ratio_against_floats(self):
        import math

        for k in P21.nstar_upto(5):
            for ell in (1, 2):
                exact = float(c_ratio(P21, k, ell))
                approx = c_float(P21, k + 3 * ell) / c_float(P21, k)
                assert math.isclose(exact, approx, rel_tol=1e-10)

    def test_c_pair_half_integer(self):
        # c_1^2 with c_1 = 3/2
        assert c_pair(P21, 1, 0, 1, 0) == Q(9, 4)

    def test_c_pair_aligned(self):
        assert c_pair(P21, 0, 0, 0, 0) == Q(9)  # c_3 * c_3

    def test_c_pair_float_oracle(self):
        from cubichodge.oracles import c_pair_float_check

        for params in (P12, RationalParams(2, 3), RationalParams(3, 4)):
            ok, detail = c_pair_float_check(params, 3)
            assert ok, detail

    def test_c_pair_range_errors(self):
        with pytest.raises(ValueError):
            c_pair(P21, 1, 0, 2, 0)
        with pytest.raises(ValueError):
            c_pair(P21, 5, 0, -3, 0)


class TestAkn:
    @pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 4)])
    def test_a0n_is_kn(self, pair):
        params = RationalParams(*pair)
        for n in range(13):
            assert a_kn(params, 0, n) == params.kconst**n

    def test_btilde00_is_theta(self):
        assert btilde_row0(P21, 0, 10) == [Q(1)] * 11

    def test_btilde01_sigma_free(self):
        # (Theta^2 - Theta)/2 expands to m/2 xi^m for every parameter pair
        for params in (P21, P12):
            assert btilde_row0(params, 1, 8) == [Q(m, 2) for m in range(9)]

    def test_btilde11_closed_form(self):
        from cubichodge.oracles import btilde11_closed_form_check

        for params in (P12, RationalParams(2, 3), RationalParams(3, 4)):
            ok, detail = btilde11_closed_form_check(params)
            assert ok, detail

    def test_integral_identity(self):
        from cubichodge.oracles import btilde11_integral_check

        for params in (P12, RationalParams(2, 3), RationalParams(3, 4)):
            ok, detail = btilde11_integral_check(params, 10)
            assert ok, detail

    def test_specialization_bridge_small(self):
        from cubichodge.oracles import specialization_bridge
        from cubichodge.ptensors import PTensorTable

        ok, detail = specialization_bridge(P12, PTensorTable(3), 2, 6)
        assert ok, detail

    def test_row_recursion_symmetry(self):
        table = BtildeTable(P21, 8)
        for i in range(3):
            for j in range(3):
                assert table.row(i, j) == table.row(j, i)


class TestOperators:
    def test_l0_on_one(self):
        one = FockPoly.monomial(P21, 10, 1)
        out = virasoro_apply(P21, 0, one)
        s1, _ = P21.sigma_values()
        expect = FockPoly.monomial(P21, 10, Q(1, 2), x=2, eps2=-1) + \
            FockPoly.monomial(P21, 10, s1 / 24)
        assert out == expect

    def test_lm_on_one_vanishes(self):
        one = FockPoly.monomial(P21, 10, 1)
        for m in (1, 2, 3):
            assert not virasoro_apply(P21, m, one)

    def test_l1_on_x_s1(self):
        f = FockPoly.monomial(P21, 10, 1, x=1, s=((1, 1),))
        assert not virasoro_apply(P21, 1, f)

    def test_l1_on_s4(self):
        f = FockPoly.monomial(P21, 10, 1, s=((4, 1),))
        out = virasoro_apply(P21, 1, f)
        assert out == FockPoly.monomial(P21, 10, Q(1, 2), s=((1, 1),))

    def test_l1_on_s3_gives_x(self):
        f = FockPoly.monomial(P21, 10, 1, s=((3, 1),))
        out = virasoro_apply(P21, 1, f)
        assert out == FockPoly.monomial(P21, 10, 1, x=1)

    def test_invalid_index_rejected(self):
        with pytest.raises(TruncationViolation):
            FockPoly.monomial(P21, 10, 1, s=((2, 1),))  # 2 not in N_*

    def test_k_cut_enforced(self):
        with pytest.raises(TruncationViolation):
            FockPoly.monomial(P21, 3, 1, s=((4, 1),))
        f = FockPoly.monomial(P21, 4, 1, s=((4, 1),))
        with pytest.raises(TruncationViolation):
            virasoro_apply(P21, 2, f)  # h*m = 6 beyond k_cut 4

    def test_degree_cut(self):
        with pytest.raises(TruncationViolation):
            FockPoly.monomial(P21, 10, 1, x=3, s=((1, 1),), d_cut=3)


class TestCommutators:
    def test_equal_indices_trivial(self):
        f = FockPoly.monomial(P21, 20, 1, x=1, s=((1, 1), (3, 1)))
        ok, _ = commutator_check(P21, 2, 2, f)
        assert ok

    def test_sample_21(self):
        k_cut = 3 * P21.h + 2 + 6 * P21.h
        f = FockPoly.monomial(P21, k_cut, 1, x=1, s=((1, 1), (3, 1)))
        ok, term = commutator_check(P21, 2, 1, f)
        assert ok, term

    def test_grid_23(self):
        params = RationalParams(2, 3)
        bound = params.h + 2
        basis = monomial_basis(params, bound + 6 * params.h, bound, 3)
        grid = commutator_grid(params, basis, 3)
        assert sorted(grid) == [(m, n) for m in range(4) for n in range(4)]
        for (m, n), term in grid.items():
            assert term is None, (m, n, term)

    def test_basis_size(self):
        basis = monomial_basis(P21, 40, 4, 2)
        # variables: x, s1, s3, s4 -> C(4+2, 2) monomials of degree <= 2
        assert len(basis) == 15


def per_sample_grid(params, basis, mmax):
    """The grid the slow way: commutator_check on each sample until one fails."""
    out = {}
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            out[m, n] = next((term for ok, term in
                              (commutator_check(params, m, n, f) for f in basis) if not ok), None)
    return out


class TestCommutatorGrid:
    def test_agrees_with_per_sample_check(self, monkeypatch):
        basis = monomial_basis(P12, 8 + 6 * P12.h, 8, 3)
        grid = commutator_grid(P12, basis, 3)
        assert grid == per_sample_grid(P12, basis, 3)
        assert list(grid.values()) == [None] * 16
        # a wrong operator: doubling every b_k breaks each off-diagonal cell
        b = RationalParams.b
        monkeypatch.setattr(RationalParams, "b", lambda self, k: 2 * b(self, k))
        grid = commutator_grid(P12, basis, 3)
        assert grid == per_sample_grid(P12, basis, 3)
        assert sorted(cell for cell, term in grid.items() if term) == \
            [(m, n) for m in range(4) for n in range(4) if m != n]

    def test_images_match_virasoro_apply(self):
        k_cut = 8 + 6 * P12.h
        ops = OperatorImages(P12, k_cut, 5)
        for f in monomial_basis(P12, k_cut, 8, 3):
            (key, _), = f.terms.items()
            i = ops.number(key)
            for m in range(6):
                it = iter(ops.image(m, i))
                image = {ops.keys[t]: Q(c, ops.den) for t, c in zip(it, it)}
                assert image == virasoro_apply(P12, m, f).terms, (m, key)

    def test_truncation_like_per_sample_check(self):
        # h = 3: the first index past k_cut = 5 is L_2, past k_cut = 7 it is L_3
        for k_cut in (5, 7):
            basis = monomial_basis(P21, k_cut, 4, 2)
            for mmax in (2, 3):
                with pytest.raises(TruncationViolation) as slow:
                    per_sample_grid(P21, basis, mmax)
                with pytest.raises(TruncationViolation) as fast:
                    commutator_grid(P21, basis, mmax)
                assert str(fast.value) == str(slow.value)
            assert commutator_grid(P21, basis, 1) == per_sample_grid(P21, basis, 1)

    @pytest.mark.parametrize("mmax, degree", [(5, 3), (3, 4)])
    def test_larger_grid_12(self, mmax, degree):
        bound = 3 * P12.h + 2
        basis = monomial_basis(P12, bound + 2 * mmax * P12.h, bound, degree)
        grid = commutator_grid(P12, basis, mmax)
        assert len(grid) == (mmax + 1) ** 2
        assert all(term is None for term in grid.values()), grid

    def test_memos_last_one_call(self, monkeypatch):
        built, pairs = [], []
        build, c_pair_ = OperatorImages._build, virasoro.c_pair
        monkeypatch.setattr(OperatorImages, "_build",
                            lambda self, *a: built.append(a) or build(self, *a))
        monkeypatch.setattr(virasoro, "c_pair", lambda *a: pairs.append(a) or c_pair_(*a))
        argv = ["virasoro", "--k1", "1", "--k2", "2", "--mmax", "3", "--index-bound", "11"]
        counts = []
        for _ in range(2):
            built.clear()
            assert main(argv) == 0
            counts.append(len(built))
        assert counts[0] == counts[1] > 0
        counts = []
        for _ in range(2):
            pairs.clear()
            assert main(["verify", "--suite", "bridge", "--pairs", "1,2;2,3"]) == 0
            counts.append(len(pairs))
        # each distinct pairing is computed once per call
        assert counts[0] == counts[1] == len(set(pairs)) > 0

    def test_shared_btilde_table(self):
        from cubichodge.oracles import (btilde11_closed_form_check, btilde11_integral_check,
                                        specialization_bridge)
        from cubichodge.ptensors import PTensorTable

        table = BtildeTable(P12, 10)
        assert specialization_bridge(P12, PTensorTable(3), 2, 6, table) == (True, None)
        assert btilde11_closed_form_check(P12, btilde=table) == (True, None)
        assert btilde11_integral_check(P12, 8, btilde=table) == (True, None)
        with pytest.raises(ValueError):
            btilde11_closed_form_check(P12, 12, btilde=table)
