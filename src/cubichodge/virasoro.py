"""Rational-case data (K1, K2): index sets, b_k, the rational functions V_m
and the A_{k,n} route to the B~ tensors.

Individual c_k with fractional b_k are Gamma quotients and generally
irrational, so they are never materialized exactly; everything exact goes
through the pairing and ratio identities

    c_{k+h l} / c_k = K^l V_l(-b_k),        c_{h l} = K^l V_l(0),
    c_{a+hm} c_{K1-a+hn} = (h/K2) K^{m+n+1} / b_{a+hm} Res_{z=b_{a+hm}} V_{m+n+1},

with a floating log-Gamma oracle available as the independent check.  V_m
has one form, its roots: three integer progressions.  Its value and its
expansion at infinity are read from them by v_value and v_zinv_expansion.
Residues of V_N, c-pairings and A_{k,n} have one route, a BtildeTable,
which owns the only memo: at each pole b it meets, V_N(b) as an integer
triple from N = ceil(b), the first V_N with a pole there, extended from V_N
to V_(N+1) by the 2h root factors of V_1(z - N), so the checks that share a
table form every residue step once.  In A_{k,n} the weight K2/h (K1/h) of a
pairing cancels its prefactor h/K2 (h/K1), so each of those terms is the
int pair K^N Res_{z=b} V_N / b.

The Fock space and the Virasoro operators L_m live in commutators.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb, gcd, prod

from .ratio import Q, QONE, QZERO


# -- rational-case parameters -----------------------------------------------------


@dataclass(frozen=True)
class RationalParams:
    k1: int
    k2: int
    h: int = field(init=False)
    kconst: object = field(init=False)

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1 or gcd(self.k1, self.k2) != 1:
            raise ValueError("K1, K2 must be coprime positive integers")
        object.__setattr__(self, "h", self.k1 + self.k2)
        object.__setattr__(self, "kconst",
                           Q(self.h) ** self.h * Q(self.k1) ** (-self.k1) * Q(self.k2) ** (-self.k2))

    # index bookkeeping ------------------------------------------------------

    def index_set_star(self):
        return [a for a in range(1 - self.k2, self.k1) if a]

    def in_nstar(self, k: int) -> bool:
        return k >= 1 - self.k2 and k != 0 and (k + self.k2) % self.h != 0

    def nstar_upto(self, bound: int):
        return [k for k in range(1 - self.k2, bound + 1) if self.in_nstar(k)]

    def decompose(self, k: int):
        """k in N_* -> (alpha, l) with alpha in I, l >= 0."""
        if not self.in_nstar(k):
            raise ValueError(f"{k} is not in N_*")
        alpha = k % self.h
        if alpha > self.k1 - 1:
            alpha -= self.h
        return alpha, (k - alpha) // self.h

    def b(self, k: int):
        alpha, ell = self.decompose(k)
        if alpha >= 0:
            return Q(alpha, self.k1) + ell
        return Q(-alpha, self.k2) + ell

    def gpair(self, alpha: int, beta: int):
        if alpha == 0 and beta == 0:
            return QONE
        if alpha > 0 and beta > 0:
            return Q(self.k2, self.h) if alpha + beta == self.k1 else QZERO
        if alpha < 0 and beta < 0:
            return Q(self.k1, self.h) if alpha + beta == -self.k2 else QZERO
        return QZERO

    def sigma_values(self):
        s1 = Q(1, self.h) - Q(1, self.k1) - Q(1, self.k2)
        s3 = Q(2, self.h**3) - Q(2, self.k1**3) - Q(2, self.k2**3)
        return s1, s3

    def c_int(self, ell: int) -> int:
        """c_{h*ell} for integer b: an ordinary binomial."""
        if ell < 0:
            raise ValueError("negative aligned index")
        return comb(self.h * ell, self.k1 * ell)


# -- V_m from its roots, and the floating c_k ----------------------------------------


def _progressions(params: RationalParams):
    """The roots of V_m(z) = prod_{j=0}^{m-1} V_1(z - j) as (d, on top):
    n/d for n = 1..d m, with d = h on top and d = K1, K2 below."""
    return (params.h, True), (params.k1, False), (params.k2, False)


def _v_extend(params: RationalParams, p: int, q: int, state: tuple, m0: int, m1: int) -> tuple:
    """(order, num, den) of V_m1 at p/q from that of V_m0, exactly, in
    integer arithmetic: V_m1 = V_m0 times the root factors n/d of each
    progression with d m0 < n <= d m1.

    At p/q each factor is p/q - n/d = (d p - n q)/(d q): the nonzero d p - n q
    of a progression are multiplied together and their (d q) scales go to
    the other side.  order = (vanishing factors on top) - (vanishing factors
    below), and num/den is the product of the nonvanishing factors; common
    roots cancel through the count.  V_0 = 1 is (0, 1, 1)."""
    order, num, den = state
    for d, on_top in _progressions(params):
        factors = range(d * p - (d * m0 + 1) * q, d * p - d * m1 * q - 1, -q)
        top, zeros = prod(factors), 0
        if not top:
            # d p - n q vanishes for one n at most
            top, zeros = prod(f for f in factors if f), 1
        scale = (d * q) ** (len(factors) - zeros)
        if on_top:
            num, den, order = num * top, den * scale, order + zeros
        else:
            num, den, order = num * scale, den * top, order - zeros
    return order, num, den


def v_value(params: RationalParams, m: int, x):
    """V_m(x), exactly; raises ZeroDivisionError at a pole."""
    if m < 0:
        raise ValueError("m must be >= 0")
    x = Q(x)
    order, num, den = _v_extend(params, x.numerator, x.denominator, (0, 1, 1), 0, m)
    if order < 0:
        raise ZeroDivisionError(f"pole of V_{m} at {x}")
    return Q(num, den) if order == 0 else QZERO


def v_zinv_expansion(params: RationalParams, m: int, order: int):
    """Coefficients of z^0..z^-order of V_m at z = infinity,

        prod (1 - a/z) / prod (1 - b/z),

    over the roots a on top and b below (h m of each), taken factor by
    factor from the three progressions.  Common roots are not cancelled:
    their factors cancel in the truncated series all the same."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = [QONE] + [QZERO] * order
    for d, on_top in _progressions(params):
        for n in range(1, d * m + 1):
            a = Q(n, d)
            if on_top:
                for i in range(order, 0, -1):
                    out[i] -= a * out[i - 1]
            else:
                for i in range(1, order + 1):
                    out[i] += a * out[i - 1]
    return out


def c_float(params: RationalParams, k: int) -> float:
    """Floating c_k via log-Gamma; the independent oracle for the pairings."""
    b = float(params.b(k))
    top = math.lgamma(b * params.h + 1)
    return math.exp(top - math.lgamma(b * params.k1 + 1) - math.lgamma(b * params.k2 + 1))


# -- residues, c-pairings, A_{k,n} and B~ --------------------------------------------


class BtildeTable:
    """B~_{i,j} xi-series to xi^order via the xi d/dxi recursion from row 0.

    A table keeps its rows, as int numerators over one denominator each
    (row gives them as rationals), the k-free integer terms of every A_{k,n}
    (a_kn_terms) and, for each pole b = p/q it meets, the integer triples
    (order, num, den) of V_N at b for N = ceil(b), ceil(b) + 1, ... (no
    V_N with N < b has a pole at b): V_(N+1) is V_N times the 2h root
    factors that V_1(z - N) adds, so each residue is extended one N at a
    time and every pairing that shares the table reads the same steps."""

    def __init__(self, params: RationalParams, order: int):
        self.params = params
        self.order = order
        self._rows: dict = {}
        self._steps: dict = {}
        self._a_terms: dict = {}

    def residue_term(self, p: int, q: int, n: int) -> tuple:
        """K^n Res_{z=b} V_n / b at b = p/q > 0 in lowest terms, as a reduced
        int pair (num, den), den > 0, with K^n = h^(hn) / (K1^(K1 n)
        K2^(K2 n)); (0, 1) at a regular point or a zero of V_n.  A pole of
        order >= 2 cannot happen: it needs b = n1/K1 = n2/K2, and then h b =
        n1 + n2 lies in 1..h n, so a top factor vanishes too (for coprime
        K1, K2 such a b is an integer).  It raises ArithmeticError all the
        same."""
        params = self.params
        first = -(-p // q)  # V_N has a pole at b only for N >= b
        if n < first:
            return 0, 1
        steps = self._steps.get((p, q))
        if steps is None:
            steps = self._steps[p, q] = [_v_extend(params, p, q, (0, 1, 1), 0, first)]
        while len(steps) <= n - first:
            m = first + len(steps)
            steps.append(_v_extend(params, p, q, steps[-1], m - 1, m))
        order, num, den = steps[n - first]
        if order >= 0:
            return 0, 1
        if order < -1:
            raise ArithmeticError(f"pole of V_{n} at {Q(p, q)} is not simple")
        num *= params.h ** (params.h * n) * q
        den *= params.k1 ** (params.k1 * n) * params.k2 ** (params.k2 * n) * p
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        return num // g, den // g

    def c_pair(self, alpha: int, m: int, beta: int, n: int):
        """c_{alpha+hm} c_{beta+hn} = w K^N Res_{z=b} V_N / b, exactly, read
        from the residue steps.

        Cases: alpha in 1..K1-1 with beta = K1 - alpha (w = h/K2, b =
        b_{alpha+hm}, N = m+n+1); alpha in -(K2-1)..-1 with beta = -alpha - K2
        (w = h/K1, likewise); alpha = beta = 0 (indices h(m+1), h(n+1), w = 1,
        b = m+1, N = m+n+2)."""
        params = self.params
        if alpha == beta == 0:
            return Q(*self.residue_term(m + 1, 1, m + n + 2))
        if 1 <= alpha < params.k1 and beta == params.k1 - alpha:
            w = Q(params.h, params.k2)
        elif 1 - params.k2 <= alpha < 0 and beta == -alpha - params.k2:
            w = Q(params.h, params.k1)
        else:
            raise ValueError(f"no pairing identity for (alpha, beta) = ({alpha}, {beta})")
        b = params.b(alpha + params.h * m)
        return w * Q(*self.residue_term(b.numerator, b.denominator, m + n + 1))

    def a_kn_terms(self, n: int) -> tuple:
        """The k-free parts of A_{k,n} for n >= 1, in integers: (base p,
        weight u) pairs and one weight denominator d with

            A_{k,n} = sum_(p, u) u p^k / (d (K1 K2)^k).

        The bases p / (K1 K2) are l (weight c_{hl} c_{h(n-l)}, with the
        boundaries l = n and l = 0 of weight c_{hn}; base 0 counts at k = 0
        alone, as 0^0 = 1) and b = b_{alpha+hl}, whose weight K2/h (or
        K1/h) cancels the prefactor h/K2 (or h/K1) of the c pair,
        leaving residue_term at b and N = n.  The alpha = beta = 0 block contributes
        both boundary terms l = 0 and l = n (the printed formula in the
        source drops the l = n one); the identity A_{0,n} = K^n pins the
        convention.  Built once per n."""
        got = self._a_terms.get(n)
        if got is not None:
            return got
        params = self.params
        # every b has denominator K1 or K2, which divide K1 K2
        k12 = params.k1 * params.k2
        terms = [(ell * k12, params.c_int(ell) * params.c_int(n - ell), 1) for ell in range(1, n)]
        terms += [(n * k12, params.c_int(n), 1), (0, params.c_int(n), 1)]
        for alpha in params.index_set_star():
            b = params.b(alpha)  # b_{alpha+hl} = b_alpha + l
            for p in range(b.numerator, b.numerator + n * b.denominator, b.denominator):
                terms.append((p * (k12 // b.denominator), *self.residue_term(p, b.denominator, n)))
        d = math.lcm(*(w for _, _, w in terms))
        got = self._a_terms[n] = ([(p, u * (d // w)) for p, u, w in terms], d)
        return got

    def a_kn(self, k: int, n: int):
        """zeta^n coefficient of B~_{0,k}: A_{k,n} from a_kn_terms(n), one
        integer sum over one denominator."""
        if n == 0:
            return QONE if k == 0 else QZERO
        terms, d = self.a_kn_terms(n)
        return Q(sum(u * p**k for p, u in terms), d * (self.params.k1 * self.params.k2) ** k)

    def row(self, i: int, j: int) -> list:
        """B~_{i,j} at xi^0..xi^order, one rational per entry."""
        nums, den = self._int_row(i, j)
        return [Q(num, den) for num in nums]

    def _int_row(self, i: int, j: int) -> tuple:
        """B~_{i,j} as (int numerators, one denominator), with no rational
        formed.  Row 0 holds A_{j,n} / K^n = total K1^(K1 n) K2^(K2 n) /
        (d (K1 K2)^j h^(h n)), with A_{j,n} = total / (d (K1 K2)^j), over
        lcm(d) (K1 K2)^j h^(h order); row i is the Euler step of row
        (i - 1, j) minus row (i - 1, j + 1), over the lcm of their
        denominators."""
        got = self._rows.get((i, j))
        if got is not None:
            return got
        params, order = self.params, self.order
        if i == 0:
            k1, k2, h = params.k1, params.k2, params.h
            parts = [self.a_kn_terms(n) for n in range(1, order + 1)]
            d_lcm = math.lcm(*(d for _, d in parts))
            den = d_lcm * (k1 * k2) ** j * h ** (h * order)
            nums = [den if j == 0 else 0]
            for n, (terms, d) in enumerate(parts, 1):
                total = sum(u * p**j for p, u in terms)
                nums.append(total * k1 ** (k1 * n) * k2 ** (k2 * n) * (d_lcm // d)
                            * h ** (h * (order - n)))
        else:
            lower, lower_den = self._int_row(i - 1, j)
            nxt, nxt_den = self._int_row(i - 1, j + 1)
            den = math.lcm(lower_den, nxt_den)
            a, b = den // lower_den, den // nxt_den
            nums = [n * x * a - y * b for n, (x, y) in enumerate(zip(lower, nxt))]
        got = self._rows[i, j] = (nums, den)
        return got
