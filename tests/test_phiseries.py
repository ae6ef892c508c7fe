import hashlib
import json
from math import factorial, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubichodge.phiseries import (TruncationError, TSeries, bernoulli, binomial_zinv, ddz, log_phi,
                                  log_phi_shifted, phi_d_inv_all, power_sum, q_number)
from cubichodge.jets import JetPoly
from cubichodge.ratio import Q
from cubichodge.textform import jet_json
from golden import sigma_degrees
from test_bell import bell_complete_all

S1 = JetPoly.monomial(1, (1, 0), {})


class TestBernoulli:
    @pytest.mark.parametrize("n, val", [(0, Q(1)), (1, Q(-1, 2)), (2, Q(1, 6)),
                                        (4, Q(-1, 30)), (6, Q(1, 42)), (12, Q(-691, 2730))])
    def test_values(self, n, val):
        assert bernoulli(n) == val

    def test_odd_vanish(self):
        assert all(bernoulli(n) == 0 for n in (3, 5, 7, 9, 11))


class TestPowerSum:
    def test_p1(self):
        assert power_sum(1) == -S1

    def test_p3(self):
        assert power_sum(3) == JetPoly.monomial(Q(-1, 2), (0, 1), {})

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
            assert sigma_degrees(power_sum(k)) == {k}

    def test_cy_exact_oracle(self):
        from cubichodge.oracles import cy_power_sum_check

        ok, detail = cy_power_sum_check()
        assert ok, detail


class TestLogPhi:
    def test_zinv1(self):
        assert log_phi(6).coefficient((1,)) == S1 * Q(1, 12)

    def test_zinv2_vanishes(self):
        assert not log_phi(6).coefficient((2,))

    def test_zinv3(self):
        # -B_4/(4*3) * (p^3+q^3+r^3) = (1/360)(-s3/2)
        assert log_phi(6).coefficient((3,)) == JetPoly.monomial(Q(-1, 720), (0, 1), {})

    def test_truncation_enforced(self):
        with pytest.raises(TruncationError):
            log_phi(4).coefficient((5,))


def phi_d_inv(m: int, order: int) -> TSeries:
    """Phi * d^m/dz^m (1/Phi) alone, read off the all-m pass."""
    if m < 0:
        raise ValueError("negative derivative order")
    return phi_d_inv_all(m, order)[m]


class TestPhiDInv:
    def test_m0(self):
        s = phi_d_inv(0, 5)
        assert s.coefficient((0,)) == JetPoly.one()
        assert all(not s.coefficient((n,)) for n in range(1, 6))

    def test_m1_leading(self):
        s = phi_d_inv(1, 6)
        assert s.coefficient((2,)) == S1 * Q(1, 12)
        assert not s.coefficient((0,)) and not s.coefficient((1,))

    def test_m2_leading(self):
        assert phi_d_inv(2, 6).coefficient((3,)) == S1 * Q(-1, 6)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_series_oracle(self, m):
        # expand Phi = exp(log Phi), differentiate 1/Phi directly, multiply back
        order = 8
        lp = log_phi(order)
        inv_phi = (-lp).exp()
        phi = lp.exp()
        d = inv_phi
        for _ in range(m):
            d = ddz(d)
        direct = phi * d
        mine = phi_d_inv(m, order)
        for n in range(order - 1):
            assert mine.coefficient((n,)) == direct.coefficient((n,)), (m, n)

    def test_matches_complete_bell(self):
        # u_m is the complete Bell value at X_i = -(log Phi)^(i)
        m_max = order = 13
        xs = []
        d = log_phi(order)
        for _ in range(m_max):
            d = ddz(d)
            xs.append(-d)
        expect = [TSeries.graded(v.n_max, order, v.grades)
                  for v in bell_complete_all(m_max, xs, TSeries.const(1, 0, order))]
        got = phi_d_inv_all(m_max, order)
        assert len(got) == len(expect)
        for m, (u, v) in enumerate(zip(got, expect)):
            assert u.d_max == v.d_max == order, m
            assert u == v, m


class TestQNumbers:
    @pytest.mark.parametrize("n, k, val", [(0, 1, 1), (1, 2, -1), (2, 3, 2),
                                           (1, 1, 1), (2, 1, 1), (2, 2, -3)])
    def test_values(self, n, k, val):
        assert q_number(n, k) == Q(val)

    def test_stirling_form(self):
        # Q(n, k) = (-1)^(k-1) (k-1)! S(n+1, k), with S(n, k) from its recurrence:
        # the Theta^k weight of pi_(n+1) = (Theta (1 - Theta) d/dTheta)^n Theta
        stirling = [[1]]
        for n in range(1, 26):
            prev = stirling[-1] + [0]
            stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
        for n in range(25):
            for k in range(1, n + 2):
                assert q_number(n, k) == (-1) ** (k - 1) * factorial(k - 1) * stirling[n + 1][k]

    def test_range_errors(self):
        with pytest.raises(ValueError):
            q_number(2, 0)
        with pytest.raises(ValueError):
            q_number(2, 4)

    def test_geometric_oracle(self):
        from cubichodge.oracles import q_geometric_check

        ok, detail = q_geometric_check()
        assert ok, detail


class TestSeriesArithmetic:
    def test_ddz_monomials(self):
        # d/dz z^-n = -n z^-(n+1), and a constant goes to 0
        for n in range(5):
            got = ddz(TSeries(0, 6, {(n,): S1}))
            assert got == TSeries(0, 7, {(n + 1,): S1 * Q(-n)}), n
        assert not ddz(TSeries.const(3, 0, 6))

    def test_exp_log_roundtrip(self):
        s = log_phi(9)
        again = s.exp()
        # recover the series by log: compare exp(s) * exp(-s) = 1
        prod = again * (-s).exp()
        assert prod.coefficient((0,)) == JetPoly.one()
        for n in range(1, 8):
            assert not prod.coefficient((n,))

    def test_binomial_series(self):
        s = binomial_zinv(Q(-1, 2), -1, 4)
        assert s.coefficient((0,)) == JetPoly.one()
        assert s.coefficient((1,)) == JetPoly.const(Q(1, 2))
        assert s.coefficient((2,)) == JetPoly.const(Q(3, 8))


def in_lowest_terms(s: TSeries) -> bool:
    """Every degree holds a nonzero JetPoly whose den > 0 has gcd 1 with its
    (nonzero, integer) numerators."""
    return all(g.terms and all(g.terms.values()) and g.den > 0 and gcd(g.den, *g.terms.values()) == 1
               for g in s.grades.values())


def dens(s: TSeries) -> dict:
    """{degree: the denominator of that degree's JetPoly}."""
    return {d: g.den for d, g in s.grades.items()}


def tser(d_max, coeffs, n_max=0):
    """A series from {t-exponent tuple: rational}."""
    return TSeries(n_max, d_max, {k: JetPoly.const(c) for k, c in coeffs.items()})


class TestIntNumerators:
    def test_truncate_reduces(self):
        s = tser(4, {(0,): 2, (3,): Q(1, 3)})
        assert dens(s) == {0: 1, 3: 3} and in_lowest_terms(s)
        cut = TSeries.graded(s.n_max, 2, s.grades)
        assert dens(cut) == {0: 1} and in_lowest_terms(cut)
        assert cut == tser(2, {(0,): 2})

    def test_product_whose_terms_cancel(self):
        # (1 + t/3)(1 - t/3) = 1 - t^2/9; truncated at t^1 only 1 is left
        a, b = tser(1, {(0,): 1, (1,): Q(1, 3)}), tser(1, {(0,): 1, (1,): Q(-1, 3)})
        prod = a * b
        assert dens(prod) == {0: 1} and in_lowest_terms(prod)
        assert prod == TSeries.const(1, 0, 1)
        assert not a * b - TSeries.const(1, 0, 1)

    def test_recip(self):
        # 1 / (1 + t/2) = sum (-t/2)^n
        got = tser(4, {(0,): 1, (1,): Q(1, 2)}).recip()
        assert in_lowest_terms(got) and dens(got) == {n: 2**n for n in range(5)}
        assert got == tser(4, {(n,): Q(-1, 2) ** n for n in range(5)})

    def test_equal_by_different_routes(self):
        t = TSeries.t(0, 0, 4)
        a = tser(4, {(1,): Q(1, 6), (2,): Q(1, 4)})
        b = t * Q(1, 6) + (t * Q(1, 2)) ** 2
        c = (t * Q(2, 3) + t * t) * Q(1, 4)
        d = ((t + TSeries.const(1, 0, 4)) * Q(1, 2)) ** 2 - t * Q(1, 3) - TSeries.const(Q(1, 4), 0, 4)
        for other in (b, c, d):
            assert in_lowest_terms(other)
            assert other == a and dens(other) == dens(a)

    def test_coefficients_are_rationals(self):
        s = tser(3, {(1,): Q(3, 4), (2,): Q(-5, 6)})
        assert dens(s) == {1: 4, 2: 6}
        assert s.coefficients() == {(1,): JetPoly.const(Q(3, 4)), (2,): JetPoly.const(Q(-5, 6))}
        assert s.coefficient((2,)) == JetPoly.const(Q(-5, 6))

    def test_coefficient_with_jets_rejected(self):
        # a jet slot of a coefficient would land in a t slot of the key
        with pytest.raises(ValueError):
            TSeries(0, 3, {(1,): JetPoly.z(0)})
        with pytest.raises(ValueError):
            TSeries.t(0, 0, 3) * JetPoly.monomial(1, (1, 0), {2: 1})
        with pytest.raises(ValueError):
            JetPoly.z(1).evaluate(1, 1)

    def test_zero_has_den_one(self):
        s = tser(3, {(1,): Q(3, 4)})
        assert (s - s).grades == {} and not s - s and s * 0 == TSeries.zero(0, 3)


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_series = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _rationals, max_size=5)


def coefficient_dict(s: TSeries) -> dict:
    """{t-exponents: rational} of a sigma-free series."""
    return {k: dict(c.items())[(0, 0, 0, 0)] for k, c in s.coefficients().items()}


@given(_series, _series, _rationals)
def test_ops_match_rational_reference(ca, cb, q):
    d_max = 3
    a, b = tser(d_max, ca, n_max=1), tser(d_max, cb, n_max=1)
    ra, rb = coefficient_dict(a), coefficient_dict(b)
    prod = {}
    for ka, va in ra.items():
        for kb, vb in rb.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            if sum(k) <= d_max:
                prod[k] = prod.get(k, 0) + va * vb
    total = {k: ra.get(k, 0) + rb.get(k, 0) for k in set(ra) | set(rb)}
    diff = {k: ra.get(k, 0) - rb.get(k, 0) for k in set(ra) | set(rb)}
    cases = [(a * b, prod), (a + b, total), (a - b, diff),
             (a * q, {k: v * q for k, v in ra.items()}),
             (a.diff(1), {(k[0], k[1] - 1): v * k[1] for k, v in ra.items() if k[1]}),
             (TSeries.graded(a.n_max, 1, a.grades), {k: v for k, v in ra.items() if sum(k) <= 1})]
    for got, want in cases:
        assert in_lowest_terms(got)
        assert got == tser(got.d_max, want, n_max=1)
        assert coefficient_dict(got) == {k: v for k, v in want.items() if v}


# sha256 of the z^0..z^-12 coefficients of the shift series for j = 0..8,
# frozen while the 1/z series were a valuation-tracked class of their own
SHIFT_ANCHORS = {
    "shift_expansion_term": "139d7422368190d85e908da3eecc3a9fceafd39a86b7a2c321e173cdf8cdffcc",
    "log_phi_shifted": "09e975b76b3c2857984744b7c5a9608cd26827f98a7533a81403646be058bbd0",
}


@pytest.mark.parametrize("name", sorted(SHIFT_ANCHORS))
def test_frozen_shift_series(name):
    from cubichodge.oracles import shift_expansion_term

    series = {"shift_expansion_term": lambda j: shift_expansion_term(j, 12),
              "log_phi_shifted": lambda j: log_phi_shifted(12, j)}[name]
    data = [[jet_json(series(j).coefficient((n,))) for n in range(13)] for j in range(9)]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == SHIFT_ANCHORS[name]


def product_route_shift_term(j: int, order: int) -> TSeries:
    """The shift factor by one series product per shift: exp(log Phi(z) -
    log Phi(z - j)) times (1 - j/z)^(-1/2)."""
    return (log_phi(order) - log_phi_shifted(order, j)).exp() * binomial_zinv(Q(-1, 2), -j, order)


@pytest.mark.parametrize("order", [8, 12])
def test_symbolic_shift_series_matches_the_product_route(order):
    # the one series with j symbolic, read at each shift, against a series
    # product per shift; each S_n(j) has degree <= n in j
    from cubichodge.oracles import shift_expansion_term, shift_series

    assert all(max(parts) <= n for n, parts in enumerate(shift_series(order)))
    for j in range(9):
        assert shift_expansion_term(j, order) == product_route_shift_term(j, order), j


def naive_log_phi_shifted(order: int, shift) -> TSeries:
    """log Phi(z - shift) by one series product per odd power: each c_n t^n
    of log Phi times (1 - shift t)^-n."""
    out = TSeries.zero(0, order)
    for (n,), c in log_phi(order).coefficients().items():
        out = out + TSeries(0, order, {(n,): c}) * binomial_zinv(-n, -shift, order)
    return out


@pytest.mark.parametrize("shift", [*range(9), -3, Q(1, 2)], ids=str)
def test_log_phi_shifted_matches_series_products(shift):
    for order in (1, 2, 7, 12):
        got = log_phi_shifted(order, shift)
        assert got == naive_log_phi_shifted(order, shift), order
        assert in_lowest_terms(got)


# -- exp, log and recip against the series-product loops -------------------------


def naive_recip(s: TSeries) -> TSeries:
    """1/s as sum_k (1 - s)^k, one series product per power."""
    u = TSeries.const(1, s.n_max, s.d_max) - s
    acc = p = TSeries.const(1, s.n_max, s.d_max)
    for _ in range(s.d_max):
        p = p * u
        acc = acc + p
    return acc


def naive_log(s: TSeries) -> TSeries:
    """log s as sum_k (-1)^(k+1) (s - 1)^k / k."""
    u = s - TSeries.const(1, s.n_max, s.d_max)
    acc, p = TSeries.zero(s.n_max, s.d_max), TSeries.const(1, s.n_max, s.d_max)
    for k in range(1, s.d_max + 1):
        p = p * u
        acc = acc + p * Q((-1) ** (k + 1), k)
    return acc


def naive_exp(s: TSeries) -> TSeries:
    """exp s as sum_k s^k / k!."""
    acc = p = TSeries.const(1, s.n_max, s.d_max)
    for k in range(1, s.d_max + 1):
        p = p * s * Q(1, k)
        acc = acc + p
    return acc


S3 = JetPoly.monomial(1, (0, 1), {})
# two t variables, s1 and s3 in the coefficients, grades 1, 4 and 5 only
GAPPED = TSeries(1, 9, {(1, 0): S1 * Q(1, 2), (0, 1): S3 * Q(-1, 3), (3, 1): S1 * S1,
                        (0, 4): S3 * Q(5, 7) + JetPoly.const(Q(2, 9)), (2, 3): S1 * S3})


@pytest.mark.parametrize("op", ["exp", "log", "recip"])
def test_grade_recurrences_match_series_products(op):
    arg = GAPPED if op == "exp" else GAPPED + TSeries.const(1, 1, 9)
    assert sorted(arg.grades) == ([1, 4, 5] if op == "exp" else [0, 1, 4, 5])
    got = getattr(arg, op)()
    assert got == {"exp": naive_exp, "log": naive_log, "recip": naive_recip}[op](arg)
    assert in_lowest_terms(got) and set(got.grades) == set(range(op == "log", 10))
    if op == "exp":
        assert got * (-arg).exp() == TSeries.const(1, 1, 9)
    elif op == "recip":
        assert got * arg == TSeries.const(1, 1, 9)
    else:
        assert got.exp() == arg


@pytest.mark.parametrize("op, const", [("exp", 1), ("log", 2), ("recip", 0), ("log", 0)])
def test_grade_recurrences_check_the_constant_term(op, const):
    arg = GAPPED + TSeries.const(const, 1, 9) if const else GAPPED
    with pytest.raises(ValueError, match="needs constant term"):
        getattr(arg, op)()


def test_degree_guard():
    """A grade's t exponents add up to its degree, so d_max bounds each:
    both constructors take DEGREE_MAX, the largest a slot holds, and raise
    one past it."""
    from cubichodge.phiseries import DEGREE_MAX
    from cubichodge.sparse import SLOT_HALF

    assert DEGREE_MAX == SLOT_HALF - 1
    top = TSeries(0, DEGREE_MAX, {(DEGREE_MAX,): JetPoly.one()})
    assert top.coefficient((DEGREE_MAX,)) == JetPoly.one()
    assert TSeries.graded(0, DEGREE_MAX, top.grades) == top
    for make in (lambda: TSeries(0, DEGREE_MAX + 1), lambda: TSeries.graded(0, DEGREE_MAX + 1, {})):
        with pytest.raises(ValueError, match="d_max"):
            make()
    # d/dz = -t^2 d/dt is exact one degree further, which no series may be
    with pytest.raises(ValueError, match="d_max"):
        ddz(TSeries.const(1, 0, DEGREE_MAX))
