import pytest

from cubichodge.phiseries import (TruncationError, ZInvSeries, bernoulli, binom_q,
                                  binomial_zinv, log_phi, phi_d_inv_all, power_sum, q_number)
from cubichodge.ratio import Q
from cubichodge.sigma import SigmaPoly
from test_bell import bell_complete_all


class TestBernoulli:
    @pytest.mark.parametrize("n, val", [(0, Q(1)), (1, Q(-1, 2)), (2, Q(1, 6)),
                                        (4, Q(-1, 30)), (6, Q(1, 42)), (12, Q(-691, 2730))])
    def test_values(self, n, val):
        assert bernoulli(n) == val

    def test_odd_vanish(self):
        assert all(bernoulli(n) == 0 for n in (3, 5, 7, 9, 11))


class TestPowerSum:
    def test_p1(self):
        assert power_sum(1) == -SigmaPoly.s1()

    def test_p3(self):
        assert power_sum(3) == SigmaPoly.s3() * Q(-1, 2)

    def test_p5_numeric(self):
        # CY triple p=q=1, r=-1/2: fifth power sum is 63/32
        s1, s3 = Q(-3, 2), Q(-15, 4)
        assert power_sum(5).evaluate(s1, s3) == Q(63, 32)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            power_sum(4)

    def test_degree(self):
        for i in range(1, 7):
            k = 2 * i - 1
            assert power_sum(k).degree() == k
            assert power_sum(k).is_homogeneous(k)

    def test_cy_float_oracle(self):
        from cubichodge.oracles import cy_power_sum_check

        ok, detail = cy_power_sum_check(11)
        assert ok, detail


class TestLogPhi:
    def test_zinv1(self):
        assert log_phi(6).coeff(1) == SigmaPoly.s1() * Q(1, 12)

    def test_zinv2_vanishes(self):
        assert not log_phi(6).coeff(2)

    def test_zinv3(self):
        # -B_4/(4*3) * (p^3+q^3+r^3) = (1/360)(-s3/2)
        assert log_phi(6).coeff(3) == SigmaPoly.s3() * Q(-1, 720)

    def test_truncation_enforced(self):
        with pytest.raises(TruncationError):
            log_phi(4).coeff(5)


def phi_d_inv(m: int, order: int) -> ZInvSeries:
    """Phi * d^m/dz^m (1/Phi) alone, read off the all-m pass."""
    if m < 0:
        raise ValueError("negative derivative order")
    return phi_d_inv_all(m, order)[m]


class TestPhiDInv:
    def test_m0(self):
        s = phi_d_inv(0, 5)
        assert s.coeff(0) == SigmaPoly.one()
        assert all(not s.coeff(n) for n in range(1, 6))

    def test_m1_leading(self):
        s = phi_d_inv(1, 6)
        assert s.coeff(2) == SigmaPoly.s1() * Q(1, 12)
        assert not s.coeff(0) and not s.coeff(1)

    def test_m2_leading(self):
        assert phi_d_inv(2, 6).coeff(3) == SigmaPoly.s1() * Q(-1, 6)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_series_oracle(self, m):
        # expand Phi = exp(log Phi), differentiate 1/Phi directly, multiply back
        order = 8
        lp = log_phi(order)
        inv_phi = (-lp).exp()
        phi = lp.exp()
        d = inv_phi
        for _ in range(m):
            d = d.ddz()
        direct = phi * d
        mine = phi_d_inv(m, order)
        for n in range(order - 1):
            assert mine.coeff(n) == direct.coeff(n), (m, n)

    def test_matches_complete_bell(self):
        # u_m is the complete Bell value at X_i = -(log Phi)^(i)
        m_max = order = 13
        xs = []
        d = log_phi(order)
        for _ in range(m_max):
            d = d.ddz()
            xs.append(-d)
        expect = [v.truncate(order) for v in bell_complete_all(m_max, xs, ZInvSeries.one())]
        got = phi_d_inv_all(m_max, order)
        assert len(got) == len(expect)
        for m, (u, v) in enumerate(zip(got, expect)):
            assert u.order == v.order == order, m
            assert u == v, m


class TestQNumbers:
    @pytest.mark.parametrize("n, k, val", [(0, 1, 1), (1, 2, -1), (2, 3, 2),
                                           (1, 1, 1), (2, 1, 1), (2, 2, -3)])
    def test_values(self, n, k, val):
        assert q_number(n, k) == Q(val)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            q_number(2, 0)
        with pytest.raises(ValueError):
            q_number(2, 4)

    def test_geometric_oracle(self):
        from cubichodge.oracles import q_geometric_check

        ok, detail = q_geometric_check(8, order=12)
        assert ok, detail


class TestSeriesArithmetic:
    def test_mul_truncation_tracking(self):
        a = ZInvSeries(5, {1: SigmaPoly.one()})
        b = ZInvSeries(3, {2: SigmaPoly.one()})
        prod = a * b
        assert prod.order == min(5 + 2, 3 + 1)
        assert prod.coeff(3) == SigmaPoly.one()

    def test_exp_log_roundtrip(self):
        s = log_phi(9)
        again = s.exp()
        # recover the series by log: compare exp(s) * exp(-s) = 1
        prod = again * (-s).exp()
        assert prod.coeff(0) == SigmaPoly.one()
        for n in range(1, 8):
            assert not prod.coeff(n)

    def test_binomial_series(self):
        s = binomial_zinv(Q(-1, 2), -1, 4)
        assert s.coeff(0) == SigmaPoly.one()
        assert s.coeff(1) == SigmaPoly.const(Q(1, 2))
        assert s.coeff(2) == SigmaPoly.const(Q(3, 8))

    def test_binom_q(self):
        assert binom_q(Q(-1, 2), 2) == Q(3, 8)
        assert binom_q(Q(5), 2) == Q(10)
