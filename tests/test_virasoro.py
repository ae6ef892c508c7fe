from functools import cache
from math import comb, gcd

import pytest

from cubichodge import oracles, virasoro
from cubichodge.cli import main
from cubichodge.commutators import (OperatorImages, TruncationViolation, commutator_grid,
                                    monomial_basis)
from cubichodge.ratio import Q, QONE, qstr
from cubichodge.sparse import add_into, nonzero
from cubichodge.virasoro import BtildeTable, RationalParams, c_float, v_value, v_zinv_expansion

P21 = RationalParams(2, 1)
P12 = RationalParams(1, 2)
RESIDUE_PAIRS = [(1, 2), (2, 3), (3, 4), (4, 7), (7, 9)]


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


def v_roots(params: RationalParams, m: int):
    """The roots of V_m, uncancelled: n/h on top, n/K1 and n/K2 below."""
    top = [Q(n, params.h) for n in range(1, params.h * m + 1)]
    below = [Q(n, d) for d in (params.k1, params.k2) for n in range(1, d * m + 1)]
    return top, below


def naive_rest(num_roots, den_roots, x):
    """prod (x - a) / prod (x - b) over the roots a on top and b below that
    differ from x, one Fraction factor per root, no integer shortcut."""
    out = Q(1)
    for a in num_roots:
        if a != x:
            out *= x - a
    for b in den_roots:
        if b != x:
            out /= x - b
    return out


def naive_value(num_roots, den_roots, x):
    """Reference value of prod (z - a) / prod (z - b) at z = x, common roots
    cancelled by count."""
    x = Q(x)
    order = num_roots.count(x) - den_roots.count(x)
    if order < 0:
        raise ZeroDivisionError(f"pole at {x}")
    return naive_rest(num_roots, den_roots, x) if order == 0 else Q(0)


def naive_residue(num_roots, den_roots, r):
    """Reference Res_{z=r} of prod (z - a) / prod (z - b), common roots
    cancelled by count."""
    r = Q(r)
    mult = den_roots.count(r) - num_roots.count(r)
    if mult > 1:
        raise ArithmeticError(f"pole at {r} is not simple")
    return naive_rest(num_roots, den_roots, r) if mult == 1 else Q(0)


@cache
def ref_c_pair(params: RationalParams, alpha: int, m: int, beta: int, n: int):
    """Reference c_{alpha+hm} c_{beta+hn} = w K^N Res_{z=b} V_N / b, with the
    residue taken by naive_residue over the explicit roots of V_N (kept per
    argument tuple, as the A_{k,n} references reuse each pairing for every k)."""
    if alpha == beta == 0:
        w, b, big_n = QONE, Q(m + 1), m + n + 2
    else:
        assert beta == (params.k1 - alpha if alpha > 0 else -alpha - params.k2)
        w = Q(params.h, params.k2 if alpha > 0 else params.k1)
        b, big_n = params.b(alpha + params.h * m), m + n + 1
    return w * params.kconst**big_n / b * naive_residue(*v_roots(params, big_n), b)


def ref_a_kn(params: RationalParams, k: int, n: int):
    """Reference A_{k,n}: every base, c product and weight rebuilt for each
    (k, n) and summed term by term, the c products from ref_c_pair."""
    if n == 0:
        return QONE if k == 0 else Q(0)
    h = params.h
    total = Q(0)
    for ell in range(1, n):
        total += Q(ell) ** k * params.c_int(ell) * params.c_int(n - ell)
    total += Q(n) ** k * params.c_int(n)
    if k == 0:
        total += params.c_int(n)
    for alpha in params.index_set_star():
        beta, weight = (params.k1 - alpha, Q(params.k2, h)) if alpha > 0 else \
            (-alpha - params.k2, Q(params.k1, h))
        for ell in range(n):
            pair = ref_c_pair(params, alpha, ell, beta, n - 1 - ell)
            total += weight * params.b(alpha + h * ell) ** k * pair
    return total


def naive_zinv_expansion(num_roots, den_roots, order):
    """Reference z^0..z^-order coefficients at infinity: the plain Fraction
    product of the series 1 - a t and sum_k b^k t^k (t = 1/z), one per root."""
    out = [Q(1)] + [Q(0)] * order
    factors = [[Q(1), -a] + [Q(0)] * (order - 1) for a in num_roots]
    factors += [[b**k for k in range(order + 1)] for b in den_roots]
    for f in factors:
        out = [sum(out[i] * f[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return out


PAIRS = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 4), (2, 5)]


class TestVRational:
    def test_v1_at_zero(self):
        assert v_value(P21, 1, 0) == Q(4, 9)

    def test_v0_is_one(self):
        assert v_value(P21, 0, Q(5, 7)) == Q(1)

    def test_telescoping(self):
        x = Q(17, 5)
        v1 = [v_value(P21, 1, x - j) for j in range(3)]
        assert v_value(P21, 3, x) == v1[0] * v1[1] * v1[2]

    @pytest.mark.parametrize("pair", PAIRS)
    def test_value_equals_reference(self, pair):
        # every root, common roots and poles included, and two regular points
        params = RationalParams(*pair)
        for m in range(8):
            top, below = v_roots(params, m)
            for x in sorted(set(top + below)) + [Q(1, 7), Q(-5, 3)]:
                try:
                    want = naive_value(top, below, x)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        v_value(params, m, x)
                else:
                    assert v_value(params, m, x) == want, (m, x)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_zinv_expansion_equals_reference(self, pair):
        params = RationalParams(*pair)
        for m in range(4):
            assert v_zinv_expansion(params, m, 8) == naive_zinv_expansion(*v_roots(params, m), 8)

    def test_negative_m(self):
        for f in (v_value, v_zinv_expansion):
            with pytest.raises(ValueError):
                f(P21, -1, 1)

    def test_asymptotic_series_oracle(self):
        from cubichodge.oracles import v1_asymptotic_check

        pairs = [P12, RationalParams(2, 3), RationalParams(3, 4), RationalParams(7, 9)]
        assert v1_asymptotic_check(pairs) == (True, None)


class TestVResidue:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_equals_reference(self, pair):
        # residue_term is K^m Res_{z=r} V_m / r at every root r of V_m (all
        # positive) and at a regular point, read from one table's steps
        params = RationalParams(*pair)
        table = BtildeTable(params, 0)
        for m in range(11):
            top, below = v_roots(params, m)
            for r in set(top + below) | {Q(1, 7)}:
                residue = Q(*table.residue_term(r.numerator, r.denominator, m))
                assert residue == params.kconst**m * naive_residue(top, below, r) / r, (m, r)
                # nonzero exactly at the poles left after cancelling
                assert bool(residue) == (below.count(r) > top.count(r))


def c_ratio(params: RationalParams, k: int, ell: int):
    """Reference c_{k + h*ell} / c_k = K^ell V_ell(-b_k), exactly."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0:
        return QONE
    return params.kconst**ell * v_value(params, ell, -params.b(k))


class TestCConstants:
    def test_c_int(self):
        assert P21.c_int(1) == 3  # C(3, 2)
        assert P21.c_int(2) == 15

    def test_aligned_ratio_identity(self):
        # c_h = K V_1(0): 3 = (27/4)(4/9)
        assert P21.kconst * v_value(P21, 1, 0) == P21.c_int(1)

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
        assert BtildeTable(P21, 0).c_pair(1, 0, 1, 0) == Q(9, 4)

    def test_c_pair_aligned(self):
        assert BtildeTable(P21, 0).c_pair(0, 0, 0, 0) == Q(9)  # c_3 * c_3

    def test_c_pair_float_oracle(self):
        from cubichodge.oracles import c_pair_float_check

        for params in (P12, RationalParams(2, 3), RationalParams(3, 4)):
            ok, detail = c_pair_float_check(BtildeTable(params, 10))
            assert ok, detail

    def test_c_pair_range_errors(self):
        table = BtildeTable(P21, 0)
        with pytest.raises(ValueError):
            table.c_pair(1, 0, 2, 0)
        with pytest.raises(ValueError):
            table.c_pair(5, 0, -3, 0)

    def test_frozen_pairings(self):
        # sha256 of every c-pairing value in qstr text, one sorted line per
        # (K1,K2 alpha m beta n), for every alpha the identities allow and
        # m + n <= 9; frozen before the residues were computed from integers.
        import hashlib

        lines = []
        for params in (P12, RationalParams(2, 3), RationalParams(3, 4)):
            table = BtildeTable(params, 0)
            cases = [(0, 0)] + [(a, params.k1 - a if a > 0 else -a - params.k2)
                                for a in params.index_set_star()]
            for alpha, beta in cases:
                for m in range(10):
                    for n in range(10 - m):
                        value = qstr(table.c_pair(alpha, m, beta, n))
                        lines.append(f"{params.k1},{params.k2} {alpha} {m} {beta} {n} {value}")
        assert len(lines) == 660
        digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
        assert digest == "cc0c4d4a252ed51da4c4d9121050d821fead29d4a337f662ae84fc806bd93a95"


class TestAkn:
    @pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 4)])
    def test_a0n_is_kn(self, pair):
        params = RationalParams(*pair)
        table = BtildeTable(params, 0)
        for n in range(13):
            assert table.a_kn(0, n) == params.kconst**n

    @pytest.mark.parametrize("pair", RESIDUE_PAIRS)
    def test_a_kn_matches_reference(self, pair):
        # every (k, n) of the bridge suite's B~ rows (k <= 4, n <= 10) and
        # two more orders, from residues extended one N at a time, against
        # every term rebuilt from explicit roots; (7, 9) has poles b = 2/3 + l
        params = RationalParams(*pair)
        table = BtildeTable(params, 12)
        want = {}
        for k in range(5):
            ref = [ref_a_kn(params, k, n) for n in range(13)]
            for n in range(13):
                assert table.a_kn(k, n) == ref[n], (k, n)
            want[0, k] = [a / params.kconst**n for n, a in enumerate(ref)]
        # the rows i >= 1 the bridge reads (i + j <= 4), by the Euler step and
        # the difference on these Fraction rows, against the table's int rows
        for i in range(1, 5):
            for j in range(5 - i):
                lower, nxt = want[i - 1, j], want[i - 1, j + 1]
                want[i, j] = [n * x - y for n, (x, y) in enumerate(zip(lower, nxt))]
        for (i, j), row in want.items():
            assert table.row(i, j) == row, (i, j)
        # a lone n above the table's order: every residue step in one call
        assert BtildeTable(params, 2).a_kn(3, 11) == ref_a_kn(params, 3, 11)

    @pytest.mark.parametrize("pair", RESIDUE_PAIRS)
    def test_table_c_pair_matches_c_pair(self, pair):
        # the table reads V_N at each pole from its steps, in any order of N;
        # ref_c_pair takes every residue over the explicit roots of V_N
        params = RationalParams(*pair)
        table = BtildeTable(params, 12)
        cases = [(0, 0)] + [(a, params.k1 - a if a > 0 else -a - params.k2)
                            for a in params.index_set_star()]
        for alpha, beta in cases:
            for m in reversed(range(12)):
                for n in range(12 - m):
                    want = ref_c_pair(params, alpha, m, beta, n)
                    assert table.c_pair(alpha, m, beta, n) == want, (alpha, m, beta, n)
        poles = [params.b(alpha + params.h * ell)
                 for alpha in params.index_set_star() for ell in range(12)]
        for b in poles + [Q(ell) for ell in range(1, 13)]:
            for n in range(13):
                num, den = table.residue_term(b.numerator, b.denominator, n)
                assert den > 0 and gcd(num, den) == 1
                assert bool(num) == (n >= b), (b, n)
        for alpha, beta in ((1, params.k1), (0, 1), (params.k1 + 1, 0)):
            with pytest.raises(ValueError):
                table.c_pair(alpha, 0, beta, 0)

    def test_btilde00_is_theta(self):
        assert BtildeTable(P21, 10).row(0, 0) == [Q(1)] * 11

    def test_btilde01_sigma_free(self):
        # (Theta^2 - Theta)/2 expands to m/2 xi^m for every parameter pair
        for params in (P21, P12):
            assert BtildeTable(params, 8).row(0, 1) == [Q(m, 2) for m in range(9)]

    def test_btilde11_closed_form(self):
        from cubichodge.oracles import btilde11_closed_form_check

        for params in (P12, RationalParams(2, 3), RationalParams(3, 4)):
            ok, detail = btilde11_closed_form_check(BtildeTable(params, 10))
            assert ok, detail

    def test_integral_identity(self):
        from cubichodge.oracles import btilde11_integral_check

        for params in (P12, RationalParams(2, 3), RationalParams(3, 4)):
            ok, detail = btilde11_integral_check(BtildeTable(params, 10))
            assert ok, detail

    def test_specialization_bridge_small(self):
        from cubichodge.oracles import specialization_bridge
        from cubichodge.ptensors import PTensorTable

        ok, detail = specialization_bridge(BtildeTable(P12, 10), PTensorTable(4))
        assert ok, detail

    def test_specialization_bridge_fails_on_a_changed_coefficient(self):
        from cubichodge.jets import JetPoly
        from cubichodge.oracles import specialization_bridge
        from cubichodge.ptensors import PTensorTable
        from cubichodge.theta import ThetaPoly

        # one s1 coefficient of P~_{1,2} changed: s1 = -7/6 at K = (1, 2)
        table = PTensorTable(4)
        tp = table.ptilde(1, 2)
        changed = list(tp.coeffs)
        changed[1] = changed[1] + JetPoly.monomial(1, (1, 0), {})
        table._ptilde[1, 2] = ThetaPoly(changed)
        ok, detail = specialization_bridge(BtildeTable(P12, 10), table)
        assert (ok, detail) == (False, "(i,j)=(1,2) for K=(1,2)")

    def test_specialization_bridge_fails_on_a_changed_last_entry(self):
        from cubichodge.oracles import specialization_bridge
        from cubichodge.ptensors import PTensorTable

        # the xi^10 numerator of B~_{4,0}, the last row the bridge reads, moved by one
        bt = BtildeTable(P12, 10)
        nums, den = bt._int_row(4, 0)
        bt._rows[4, 0] = (nums[:-1] + [nums[-1] + 1], den)
        ok, detail = specialization_bridge(bt, PTensorTable(4))
        assert (ok, detail) == (False, "(i,j)=(4,0) for K=(1,2)")

    def test_row_recursion_symmetry(self):
        table = BtildeTable(P21, 8)
        for i in range(3):
            for j in range(3):
                assert table.row(i, j) == table.row(j, i)


# -- the per-sample reference for the commutator grid -----------------------------


def _smono_set(smono, k, delta):
    """Adjust the exponent of s_k by delta inside a sorted smono tuple."""
    d = dict(smono)
    e = d.get(k, 0) + delta
    if e < 0:
        raise ValueError("negative s exponent")
    if e:
        d[k] = e
    else:
        d.pop(k, None)
    return tuple(sorted(d.items()))


class FockPoly:
    """Sparse polynomial in x and the s_k (k in N_*), coefficients Laurent in
    eps^2, keyed like the grid's monomials: (x exponent, eps^2 exponent,
    ((k, e), ...) sorted).  Indices are validated against N_*, the
    truncation k_cut and an optional degree cut at construction."""

    __slots__ = ("params", "k_cut", "d_cut", "terms")

    def __init__(self, params: RationalParams, k_cut: int, terms=None, d_cut: int | None = None):
        self.params = params
        self.k_cut = k_cut
        self.d_cut = d_cut
        self.terms = {}
        for key, c in (terms or {}).items():
            if c:
                self._validate(key)
                self.terms[key] = c

    def _validate(self, key):
        xe, _, smono = key
        for k, e in smono:
            if not self.params.in_nstar(k):
                raise TruncationViolation(f"s_{k} index not in N_*")
            if k > self.k_cut:
                raise TruncationViolation(f"s_{k} beyond k_cut = {self.k_cut}")
            if e < 1:
                raise ValueError("monomial exponents must be positive")
        deg = xe + sum(e for _, e in smono)
        if self.d_cut is not None and deg > self.d_cut:
            raise TruncationViolation(f"degree {deg} beyond d_cut = {self.d_cut}")

    def first_term(self):
        if not self.terms:
            return None
        key = min(self.terms)
        return key, self.terms[key]

    @classmethod
    def monomial(cls, params, k_cut, coef=1, x: int = 0, eps2: int = 0, s=(), d_cut=None):
        return cls(params, k_cut, {(x, eps2, tuple(sorted(s))): Q(coef)}, d_cut=d_cut)

    def __add__(self, other: "FockPoly") -> "FockPoly":
        r = FockPoly(self.params, self.k_cut, d_cut=self.d_cut)
        r.terms = add_into(dict(self.terms), other.terms)
        return r

    def __sub__(self, other: "FockPoly") -> "FockPoly":
        return self + (other * Q(-1))

    def __mul__(self, q) -> "FockPoly":
        r = FockPoly(self.params, self.k_cut, d_cut=self.d_cut)
        if q != 0:
            r.terms = {k: v * q for k, v in self.terms.items()}
        return r

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, FockPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)


def virasoro_apply(params: RationalParams, m: int, f: FockPoly) -> FockPoly:
    """Exact image L_m(f) on the truncated Fock space, one term at a time."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if params.h * m > f.k_cut:
        raise TruncationViolation(f"operator index h*m = {params.h * m} beyond k_cut")
    out: dict = {}
    get = out.get

    def add(key, val):
        w = get(key)
        out[key] = val if w is None else w + val

    half = Q(1, 2)
    for (xe, ee, smono), c in f.terms.items():
        if m == 0:
            for k, e in smono:
                add((xe, ee, smono), c * e * params.b(k))
            add((xe + 2, ee - 1, smono), c * half)
            s1, _ = params.sigma_values()
            add((xe, ee, smono), c * s1 / 24)
            continue
        # sum_k b_k s_k d/ds_{k+hm}
        for j, e in smono:
            k = j - params.h * m
            if not params.in_nstar(k):
                continue
            base = _smono_set(smono, j, -1)
            add((xe, ee, _smono_set(base, k, +1)), c * e * params.b(k))
        # x d/ds_{hm}
        for j, e in smono:
            if j == params.h * m:
                add((xe + 1, ee, _smono_set(smono, j, -1)), c * e)
        # eps^2/2 sum_{l=1}^{m-1} d2/ds_{hl} ds_{h(m-l)}
        for ell in range(1, m):
            add_second(add, params, smono, xe, ee, c * half,
                       params.h * ell, params.h * (m - ell))
        # eps^2/2 G-pairing over I_* and l = 0..m-1
        for alpha in params.index_set_star():
            beta = params.k1 - alpha if alpha > 0 else -alpha - params.k2
            gv = params.gpair(alpha, beta)
            if not gv or beta == 0:
                continue
            for ell in range(m):
                add_second(add, params, smono, xe, ee, c * half * gv,
                           alpha + params.h * ell, beta + params.h * (m - 1 - ell))
    r = FockPoly(params, f.k_cut)
    r.terms = nonzero(out)
    return r


def add_second(add, params, smono, xe, ee, factor, a, b):
    """factor * eps^2 * d2/ds_a ds_b applied to the monomial."""
    d = dict(smono)
    ea = d.get(a, 0)
    if not ea:
        return
    db = dict(d)
    db[a] = ea - 1
    eb = db.get(b, 0)
    if not eb:
        return
    coeff = factor * ea * eb
    base = _smono_set(_smono_set(smono, a, -1), b, -1)
    add((xe, ee + 1, base), coeff)


def commutator_check(params: RationalParams, m: int, n: int, sample: FockPoly,
                     apply=virasoro_apply):
    """([L_m, L_n] - (m - n) L_{m+n}) sample == 0, with L_m applied by
    `apply`; returns (ok, first_term)."""
    lm_ln = apply(params, m, apply(params, n, sample))
    ln_lm = apply(params, n, apply(params, m, sample))
    diff = lm_ln - ln_lm
    if m != n:
        diff = diff - apply(params, m + n, sample) * Q(m - n)
    if diff:
        return False, diff.first_term()
    return True, None


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
        basis = monomial_basis(params, bound, 3)
        grid = commutator_grid(params, basis, 3, bound + 6 * params.h)
        assert sorted(grid) == [(m, n) for m in range(4) for n in range(4)]
        for (m, n), term in grid.items():
            assert term is None, (m, n, term)

    def test_basis_size(self):
        p23 = RationalParams(2, 3)
        # (params, index bound, variable count): x, s1, s3, s4 for (2,1)
        # and x with 15 s-indices up to 3h + 2 for (2,3)
        cases = [(P21, 4, 4), (p23, 3 * p23.h + 2, 16)]
        for params, bound, variables in cases:
            for degree in range(5):
                basis = monomial_basis(params, bound, degree)
                assert len(set(basis)) == len(basis)
                assert all(ee == 0 and list(smono) == sorted(smono) for _, ee, smono in basis)
                # C(V + d, d) monomials of degree <= d in V variables
                assert len(basis) == comb(variables + degree, degree), (params, degree)


def per_sample_grid(params, basis, mmax, k_cut, apply=virasoro_apply):
    """The grid the slow way: commutator_check on each sample, each key of
    the basis wrapped in a FockPoly, until one fails."""
    samples = [FockPoly(params, k_cut, {key: Q(1)}) for key in basis]
    out = {}
    for m in range(mmax + 1):
        for n in range(mmax + 1):
            out[m, n] = next((term for ok, term in
                              (commutator_check(params, m, n, f, apply) for f in samples)
                              if not ok), None)
    return out


def images_apply(ops: OperatorImages):
    """An `apply` for commutator_check that reads L_m from the images of
    `ops`, one term at a time: the per-sample reference for operators
    whose tables a test has changed."""
    def apply(params, m, f):
        out: dict = {}
        for key, c in f.terms.items():
            packed = ops.pack(key)
            for d, w in ops.image(m, packed & ops.mask):
                term = ops.unpack(packed + d)
                out[term] = out.get(term, 0) + c * Q(w, ops.den)
        r = FockPoly(params, f.k_cut)
        r.terms = nonzero(out)
        return r
    return apply


def perturb(ops: OperatorImages, entry: str, m: int = 1) -> None:
    """Add one to a single integer coefficient of L_m's table (the first
    entry of its kind) or of L_0."""
    shifts, x_term, pairs = ops.tables[m]
    if entry == "shift":
        p = next(p for p, got in enumerate(shifts) if got)
        shifts[p] = (shifts[p][0], shifts[p][1] + 1)
    elif entry == "pair":
        pq = next(iter(pairs))
        pairs[pq] = (pairs[pq][0], pairs[pq][1] + 1)
    elif entry == "x":
        ops.tables[m] = (shifts, x_term[:2] + (x_term[2] + 1,), pairs)
    elif entry == "diagonal":
        const, x2_over_eps, half, b = ops.l0
        ops.l0 = (const, x2_over_eps, half, [b[0] + 1] + b[1:])
    else:
        const, x2_over_eps, half, b = ops.l0
        ops.l0 = (const + 1, x2_over_eps, half, b)


def perturbed_images(monkeypatch, entry: str, m: int = 1) -> None:
    """Make every OperatorImages built from now on carry perturb(entry, m)."""
    init = OperatorImages.__init__

    def patched(self, *args):
        init(self, *args)
        perturb(self, entry, m)
    monkeypatch.setattr(OperatorImages, "__init__", patched)


def perturbed_reference(params, basis, mmax, k_cut):
    """per_sample_grid on the images of a (patched) OperatorImages."""
    ops = OperatorImages(params, basis, k_cut, 2 * mmax - 1)
    return per_sample_grid(params, basis, mmax, k_cut, images_apply(ops))


class TestCommutatorGrid:
    def test_agrees_with_per_sample_check(self, monkeypatch):
        k_cut = 8 + 6 * P12.h
        basis = monomial_basis(P12, 8, 3)
        grid = commutator_grid(P12, basis, 3, k_cut)
        assert grid == per_sample_grid(P12, basis, 3, k_cut)
        assert list(grid.values()) == [None] * 16
        # a wrong operator: doubling every b_k breaks each off-diagonal cell
        b = RationalParams.b
        monkeypatch.setattr(RationalParams, "b", lambda self, k: 2 * b(self, k))
        grid = commutator_grid(P12, basis, 3, k_cut)
        assert grid == per_sample_grid(P12, basis, 3, k_cut)
        assert sorted(cell for cell, term in grid.items() if term) == \
            [(m, n) for m in range(4) for n in range(4) if m != n]
        assert grid[0, 1] == ((2, 0, ((-1, 1),)), Q(-1))

    def test_failure_on_a_monomial_with_x(self, monkeypatch):
        # x s_k comes before s_k, so each failing cell reports the residual
        # of x s_k: the s-part's residual shifted by one x, and no cell may
        # skip s_k as passed
        k_cut = 8 + 6 * P12.h
        basis = [(0, 0, ()), (1, 0, ()), (1, 0, ((2, 1),)), (0, 0, ((2, 1),)),
                 (2, 0, ((-1, 1), (5, 1))), (0, 0, ((-1, 1), (5, 1))), (0, 0, ((8, 2),))]
        b = RationalParams.b
        monkeypatch.setattr(RationalParams, "b", lambda self, k: 2 * b(self, k))
        grid = commutator_grid(P12, basis, 3, k_cut)
        assert grid == per_sample_grid(P12, basis, 3, k_cut)
        failing = [term for term in grid.values() if term]
        assert failing and all(key[0] >= 1 for key, _ in failing)

    @pytest.mark.parametrize("double_b", [False, True])
    def test_degree_beyond_one_byte(self, monkeypatch, double_b):
        # s-degrees above 255 need a wider slot than one byte
        k_cut = 8 + 6 * P12.h
        basis = [(0, 0, ((-1, 256),)), (300, 0, ((2, 1),)), (1, 0, ((-1, 130), (2, 140))),
                 (0, 0, ((3, 299), (8, 1))), (0, 0, ((5, 200), (6, 57)))]
        if double_b:
            b = RationalParams.b
            monkeypatch.setattr(RationalParams, "b", lambda self, k: 2 * b(self, k))
        grid = commutator_grid(P12, basis, 3, k_cut)
        assert grid == per_sample_grid(P12, basis, 3, k_cut)
        assert any(grid.values()) == double_b

    @pytest.mark.parametrize("pair", [(1, 2), (2, 3)])
    @pytest.mark.parametrize("entry", ["shift", "pair", "x", "diagonal", "constant"])
    def test_perturbed_tables_like_per_sample_check(self, monkeypatch, pair, entry):
        # a cell decided on the s-parts of degree <= 2 fails where the
        # degree-3 per-sample check on the same (wrong) operators fails,
        # with the same counterexample; its scan in basis order reuses the
        # residuals formed on those s-parts, so none is formed twice
        params = RationalParams(*pair)
        bound = 3 * params.h + 2
        k_cut = bound + 6 * params.h
        basis = monomial_basis(params, bound, 3)
        perturbed_images(monkeypatch, entry)
        formed = []
        residual = OperatorImages.residual
        monkeypatch.setattr(OperatorImages, "residual",
                            lambda self, m, n, s: formed.append((m, n, s)) or
                            residual(self, m, n, s))
        grid = commutator_grid(params, basis, 3, k_cut)
        assert formed and len(set(formed)) == len(formed)
        assert grid == perturbed_reference(params, basis, 3, k_cut)
        # L_0's constant commutes with every L_n and meets no L_{m+n}
        assert any(grid.values()) == (entry != "constant")

    def test_guard_refuses_a_basis_with_a_hole(self, monkeypatch):
        k_cut = 5 + 6 * P12.h
        full = monomial_basis(P12, 5, 3)
        scanned = []
        residual = OperatorImages.residual
        monkeypatch.setattr(OperatorImages, "residual",
                            lambda self, m, n, s: scanned.append(self.unpack(s)) or
                            residual(self, m, n, s))
        assert not any(commutator_grid(P12, full, 3, k_cut).values())
        assert max(sum(e for _, e in smono) for _, _, smono in scanned) == 2
        # without s_5^2 the s-parts of degree <= 2 no longer decide a cell: a
        # wrong weight of d^2/ds_5^2 in L_5 changes only the (2, 3) and
        # (3, 2) residuals, by a multiple of d^2/ds_5^2 itself
        hole = ((5, 2),)
        basis = [key for key in full if key[2] != hole]
        scanned.clear()
        grid = commutator_grid(P12, basis, 3, k_cut)
        assert grid == per_sample_grid(P12, basis, 3, k_cut)
        assert max(sum(e for _, e in smono) for _, _, smono in scanned) == 3
        perturbed_images(monkeypatch, "pair", 5)
        ops = OperatorImages(P12, basis, k_cut, 5)
        assert [ops.ks[p] for p in next(iter(ops.tables[5][2]))] == [5, 5]
        grid = commutator_grid(P12, basis, 3, k_cut)
        assert grid == perturbed_reference(P12, basis, 3, k_cut)
        assert sorted(cell for cell, term in grid.items() if term) == [(2, 3), (3, 2)]
        low = [key for key in basis if sum(e for _, e in key[2]) <= 2]
        assert not any(commutator_grid(P12, low, 3, k_cut).values())

    def test_s_degree_beyond_64_bits(self):
        basis = [(0, 0, ((1, 1 << 64),))]
        with pytest.raises(OverflowError):
            commutator_grid(P21, basis, 1, 6)

    def test_images_match_virasoro_apply(self):
        # the image of a monomial is its s-part's image shifted by its x and
        # eps^2 exponents; a basis of every x and eps^2 exponent -2..2 on the
        # s-parts of degree <= 3 checks both, with the keys' round trip
        k_cut = 8 + 6 * P12.h
        basis = [(xe, ee, smono) for xe, _, smono in monomial_basis(P12, 8, 3)
                 for ee in range(-2, 3)]
        ops = OperatorImages(P12, basis, k_cut, 5)
        for key in basis:
            packed = ops.pack(key)
            assert ops.unpack(packed) == key
            f = FockPoly(P12, k_cut, {key: Q(1)})
            for m in range(6):
                image = {ops.unpack(packed + d): Q(c, ops.den)
                         for d, c in ops.image(m, packed & ops.mask)}
                assert image == virasoro_apply(P12, m, f).terms, (m, key)

    def test_truncation_like_per_sample_check(self):
        # h = 3: the first index past k_cut = 5 is L_2, past k_cut = 7 it is L_3
        for k_cut in (5, 7):
            basis = monomial_basis(P21, 4, 2)
            for mmax in (2, 3):
                with pytest.raises(TruncationViolation) as slow:
                    per_sample_grid(P21, basis, mmax, k_cut)
                with pytest.raises(TruncationViolation) as fast:
                    commutator_grid(P21, basis, mmax, k_cut)
                assert str(fast.value) == str(slow.value)
            assert commutator_grid(P21, basis, 1, k_cut) == per_sample_grid(P21, basis, 1, k_cut)

    @pytest.mark.parametrize("key, error", [
        ((0, 0, ((2, 1),)), TruncationViolation),  # 2 is not in N_* for (2,1)
        ((0, 0, ((1, 1), (7, 1))), TruncationViolation),  # 7 beyond k_cut
        ((1, 0, ((4, 0),)), ValueError),  # exponent below 1
    ])
    def test_basis_keys_validated(self, key, error):
        # the grid rejects a key as the reference's FockPoly does, before any
        # operator runs
        basis = monomial_basis(P21, 4, 2) + [key]
        with pytest.raises(error) as slow:
            per_sample_grid(P21, basis, 1, 6)
        with pytest.raises(error) as fast:
            commutator_grid(P21, basis, 1, 6)
        assert str(fast.value) == str(slow.value)

    @pytest.mark.parametrize("mmax, degree", [(5, 3), (3, 4)])
    def test_larger_grid_12(self, mmax, degree):
        bound = 3 * P12.h + 2
        basis = monomial_basis(P12, bound, degree)
        grid = commutator_grid(P12, basis, mmax, bound + 2 * mmax * P12.h)
        assert len(grid) == (mmax + 1) ** 2
        assert all(term is None for term in grid.values()), grid

    def test_memos_last_one_call(self, monkeypatch):
        built, steps = [], []
        build, extend = OperatorImages._build, virasoro._v_extend
        monkeypatch.setattr(OperatorImages, "_build",
                            lambda self, *a: built.append(a) or build(self, *a))
        monkeypatch.setattr(virasoro, "_v_extend",
                            lambda params, p, q, state, m0, m1:
                            steps.append((params, p, q, m0, m1)) or extend(params, p, q, state, m0, m1))
        argv = ["virasoro", "--k1", "1", "--k2", "2", "--mmax", "3", "--index-bound", "11"]
        counts = []
        for _ in range(2):
            built.clear()
            assert main(argv) == 0
            counts.append(len(built))
        assert counts[0] == counts[1] > 0
        counts = []
        for _ in range(2):
            steps.clear()
            assert main(["verify", "--suite", "bridge", "--pairs", "1,2;2,3"]) == 0
            counts.append(len(steps))
        # each residue step at each pole b = p/q is formed once per call: V_0 ->
        # V_ceil(b), then V_N -> V_(N+1)
        assert counts[0] == counts[1] == len(set(steps)) > 0
        assert all(m1 == (m0 + 1 if m0 else -(-p // q)) for _, p, q, m0, m1 in steps)

    def test_no_v_state_outlives_a_call(self, monkeypatch):
        built = []
        expand = oracles.v_zinv_expansion
        monkeypatch.setattr(oracles, "v_zinv_expansion", lambda *a: built.append(a) or expand(*a))
        argv = ["verify", "--suite", "bridge", "--suite", "series-oracles", "--pairs", "1,2;2,3"]
        counts = []
        for _ in range(2):
            built.clear()
            assert main(argv) == 0
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    def test_shared_btilde_table(self):
        from cubichodge.oracles import (btilde11_closed_form_check, btilde11_integral_check,
                                        specialization_bridge)
        from cubichodge.ptensors import PTensorTable

        table = BtildeTable(P12, 10)
        assert specialization_bridge(table, PTensorTable(4)) == (True, None)
        assert btilde11_closed_form_check(table) == (True, None)
        assert btilde11_integral_check(table) == (True, None)
