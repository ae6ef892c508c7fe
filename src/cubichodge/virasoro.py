"""Rational-case data (K1, K2): index sets, b_k, the rational functions V_m,
Virasoro operators on a truncated Fock space, and the A_{k,n} route to the
B~ tensors.

Individual c_k with fractional b_k are Gamma quotients and generally
irrational, so they are never materialized exactly; everything exact goes
through the pairing and ratio identities

    c_{k+h l} / c_k = K^l V_l(-b_k),        c_{h l} = K^l V_l(0),
    c_{a+hm} c_{K1-a+hn} = (h/K2) K^{m+n+1} / b_{a+hm} Res_{z=b_{a+hm}} V_{m+n+1},

with a floating log-Gamma oracle available as the independent check.  A
BtildeTable keeps each pairing it computes, so checks that share a table
evaluate every residue once.

virasoro_apply and commutator_check act on one sample at a time; they are
the reference for the memoised commutator grid in commutators.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb, gcd

from .ratio import Q, QONE, QZERO
from .sparse import add_into, nonzero


class TruncationViolation(ValueError):
    """An operator or monomial would step outside the declared truncation."""


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

    def index_set(self):
        return list(range(-(self.k2 - 1), self.k1))

    def index_set_star(self):
        return [a for a in self.index_set() if a]

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


# -- V_m and the exact c-constant identities -----------------------------------------


class FactoredRational:
    """prod_i (z - a_i) / prod_j (z - b_j) with exact roots and common factors
    cancelled as multisets.  Evaluation, residues and the expansion at
    infinity come straight from the factors, which keeps V_m arithmetic cheap
    at large m."""

    __slots__ = ("num_roots", "den_roots")

    def __init__(self, num_roots, den_roots):
        num = {}
        for r in num_roots:
            r = Q(r)
            num[r] = num.get(r, 0) + 1
        den = {}
        for r in den_roots:
            r = Q(r)
            if num.get(r):
                num[r] -= 1
                if not num[r]:
                    del num[r]
            else:
                den[r] = den.get(r, 0) + 1
        self.num_roots = num
        self.den_roots = den

    def __call__(self, x):
        x = Q(x)
        if x in self.den_roots:
            raise ZeroDivisionError(f"pole at {x}")
        out = QONE
        for r, e in self.num_roots.items():
            out = out * (x - r) ** e
        for r, e in self.den_roots.items():
            out = out / (x - r) ** e
        return out

    def residue_at(self, r):
        r = Q(r)
        mult = self.den_roots.get(r, 0)
        if mult == 0:
            return QZERO
        if mult > 1:
            raise ArithmeticError(f"pole at {r} is not simple")
        out = QONE
        for a, e in self.num_roots.items():
            out = out * (r - a) ** e
        for b, e in self.den_roots.items():
            if b != r:
                out = out / (r - b) ** e
        return out

    def zinv_expansion(self, order: int):
        """Coefficients of z^0..z^-order of the expansion at z = infinity,

            z^(deg num - deg den) prod (1 - a/z)^e / prod (1 - b/z)^e,

        taken factor by factor from the roots; needs deg num <= deg den."""
        shift = sum(self.den_roots.values()) - sum(self.num_roots.values())
        if shift < 0:
            raise ValueError("expansion at infinity needs deg num <= deg den")
        out = [QONE] + [QZERO] * order
        for a, e in self.num_roots.items():
            for _ in range(e):
                for n in range(order, 0, -1):
                    out[n] -= a * out[n - 1]
        for b, e in self.den_roots.items():
            for _ in range(e):
                for n in range(1, order + 1):
                    out[n] += b * out[n - 1]
        return ([QZERO] * shift + out)[: order + 1]


def v_rational(params: RationalParams, m: int) -> FactoredRational:
    """V_m(z) = prod_{j=0}^{m-1} V_1(z - j) in factored form."""
    if m < 0:
        raise ValueError("m must be >= 0")
    key = (params.k1, params.k2, m)
    got = _vcache.get(key)
    if got is None:
        h, k1, k2 = params.h, params.k1, params.k2
        num = [Q(i, h) + j for j in range(m) for i in range(1, h + 1)]
        den = [Q(i, k1) + j for j in range(m) for i in range(1, k1 + 1)]
        den += [Q(i, k2) + j for j in range(m) for i in range(1, k2 + 1)]
        got = FactoredRational(num, den)
        _vcache[key] = got
    return got


_vcache: dict = {}


def c_ratio(params: RationalParams, k: int, ell: int):
    """c_{k + h*ell} / c_k = K^ell V_ell(-b_k), exactly."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0:
        return QONE
    return params.kconst**ell * v_rational(params, ell)(-params.b(k))


def c_pair(params: RationalParams, alpha: int, m: int, beta: int, n: int):
    """Exact product of two c constants per the three residue identities.

    Cases: alpha in 1..K1-1 with beta = K1 - alpha; alpha in -(K2-1)..-1 with
    beta = -alpha - K2; alpha = beta = 0 (indices h(m+1), h(n+1))."""
    h, k1, k2, K = params.h, params.k1, params.k2, params.kconst
    if alpha == 0 and beta == 0:
        vm = v_rational(params, m + n + 2)
        b = Q(m + 1)
        return K ** (m + n + 2) / b * vm.residue_at(b)
    if 1 <= alpha <= k1 - 1:
        if beta != k1 - alpha:
            raise ValueError("positive case needs beta = K1 - alpha")
        b = params.b(alpha + h * m)
        return Q(h, k2) * K ** (m + n + 1) / b * v_rational(params, m + n + 1).residue_at(b)
    if -(k2 - 1) <= alpha <= -1:
        if beta != -alpha - k2:
            raise ValueError("negative case needs beta = -alpha - K2")
        b = params.b(alpha + h * m)
        return Q(h, k1) * K ** (m + n + 1) / b * v_rational(params, m + n + 1).residue_at(b)
    raise ValueError(f"alpha = {alpha} outside the pairing identities' range")


def c_pair_memo(params: RationalParams, pairs: dict, alpha: int, m: int, beta: int, n: int):
    """c_pair through `pairs`, a dict keyed by (alpha, m, beta, n) that keeps
    each product for later calls."""
    key = (alpha, m, beta, n)
    got = pairs.get(key)
    if got is None:
        got = pairs[key] = c_pair(params, alpha, m, beta, n)
    return got


def c_float(params: RationalParams, k: int) -> float:
    """Floating c_k via log-Gamma; the independent oracle for the pairings."""
    b = float(params.b(k))
    top = math.lgamma(b * params.h + 1)
    return math.exp(top - math.lgamma(b * params.k1 + 1) - math.lgamma(b * params.k2 + 1))


# -- A_{k,n} and B~ -------------------------------------------------------------------


def a_kn(params: RationalParams, k: int, n: int, pairs: dict | None = None):
    """zeta^n coefficient of B~_{0,k}, assembled from exact c products.

    The alpha = beta = 0 block contributes both boundary terms l = 0 and
    l = n (the printed formula in the source drops the l = n one); the
    identity A_{0,n} = K^n pins the convention.  The c products do not
    depend on k: `pairs` (see c_pair_memo) keeps them across calls."""
    if n == 0:
        return QONE if k == 0 else QZERO
    if pairs is None:
        pairs = {}
    h = params.h
    total = QZERO
    for ell in range(1, n):
        total += Q(ell) ** k * params.c_int(ell) * params.c_int(n - ell)
    total += Q(n) ** k * params.c_int(n)
    if k == 0:
        total += params.c_int(n)
    for alpha in params.index_set_star():
        beta, weight = (params.k1 - alpha, Q(params.k2, h)) if alpha > 0 else \
            (-alpha - params.k2, Q(params.k1, h))
        for ell in range(n):
            pair = c_pair_memo(params, pairs, alpha, ell, beta, n - 1 - ell)
            total += weight * params.b(alpha + h * ell) ** k * pair
    return total


def btilde_row0(params: RationalParams, k: int, order: int, pairs: dict | None = None):
    """B~_{0,k} as a xi-series (xi = K zeta): coefficients A_{k,n} / K^n."""
    return [a_kn(params, k, n, pairs) / params.kconst**n for n in range(order + 1)]


class BtildeTable:
    """B~_{i,j} xi-series via the xi d/dxi recursion from row 0.

    A table keeps its rows and the c products of every row-0 entry, so one
    table shared by several checks computes each pairing once."""

    def __init__(self, params: RationalParams, order: int):
        self.params = params
        self.order = order
        self._cache: dict = {}
        self.pairs: dict = {}

    def row(self, i: int, j: int):
        got = self._cache.get((i, j))
        if got is not None:
            return got
        if i == 0:
            out = btilde_row0(self.params, j, self.order, self.pairs)
        else:
            lower = self.row(i - 1, j)
            euler = [Q(n) * c for n, c in enumerate(lower)]
            nxt = self.row(i - 1, j + 1)
            out = [x - y for x, y in zip(euler, nxt)]
        self._cache[(i, j)] = out
        return out


# -- Fock-space polynomials and the Virasoro operators ---------------------------------


class FockPoly:
    """Sparse polynomial in x and the s_k (k in N_*), coefficients Laurent in eps^2.

    Terms are keyed by (x exponent, eps^2 exponent, ((k, e), ...) sorted).
    Indices are validated against N_* and the truncation k_cut at
    construction; the optional degree cut is validated likewise.
    """

    __slots__ = ("params", "k_cut", "d_cut", "terms")

    def __init__(self, params: RationalParams, k_cut: int, terms=None, d_cut: int | None = None):
        self.params = params
        self.k_cut = k_cut
        self.d_cut = d_cut
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c == 0:
                    continue
                self._validate(key)
                self.terms[key] = c

    def _validate(self, key):
        xe, _, smono = key
        deg = xe
        for k, e in smono:
            if not self.params.in_nstar(k):
                raise TruncationViolation(f"s_{k} index not in N_*")
            if k > self.k_cut:
                raise TruncationViolation(f"s_{k} beyond k_cut = {self.k_cut}")
            if e < 1:
                raise ValueError("monomial exponents must be positive")
            deg += e
        if self.d_cut is not None and deg > self.d_cut:
            raise TruncationViolation(f"degree {deg} beyond d_cut = {self.d_cut}")

    @classmethod
    def monomial(cls, params, k_cut, coef=1, x: int = 0, eps2: int = 0, s=(), d_cut=None):
        smono = tuple(sorted(s))
        return cls(params, k_cut, {(x, eps2, smono): Q(coef)}, d_cut=d_cut)

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

    def first_term(self):
        if not self.terms:
            return None
        key = min(self.terms)
        return key, self.terms[key]


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


def virasoro_apply(params: RationalParams, m: int, f: FockPoly) -> FockPoly:
    """Exact image L_m(f) on the truncated Fock space."""
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
    r = FockPoly(params, f.k_cut, d_cut=f.d_cut)
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


def commutator_check(params: RationalParams, m: int, n: int, sample: FockPoly):
    """([L_m, L_n] - (m - n) L_{m+n}) sample == 0; returns (ok, first_term)."""
    lm_ln = virasoro_apply(params, m, virasoro_apply(params, n, sample))
    ln_lm = virasoro_apply(params, n, virasoro_apply(params, m, sample))
    diff = lm_ln - ln_lm
    if m != n:
        diff = diff - virasoro_apply(params, m + n, sample) * Q(m - n)
    if diff:
        return False, diff.first_term()
    return True, None


def monomial_basis(params: RationalParams, k_cut: int, index_bound: int, degree: int):
    """All monomials of total degree <= degree in x and s_k, k <= index_bound."""
    variables = [("x", None)] + [("s", k) for k in params.nstar_upto(index_bound)]
    basis = []

    def build(start, left, xe, smono):
        basis.append(FockPoly.monomial(params, k_cut, 1, x=xe, s=tuple(smono.items())))
        if left == 0:
            return
        for idx in range(start, len(variables)):
            kind, k = variables[idx]
            if kind == "x":
                build(idx, left - 1, xe + 1, smono)
            else:
                smono[k] = smono.get(k, 0) + 1
                build(idx, left - 1, xe, smono)
                smono[k] -= 1
                if not smono[k]:
                    del smono[k]

    build(0, degree, 0, {})
    # deduplicate (the recursion revisits shorter monomials)
    uniq = {}
    for p in basis:
        uniq[next(iter(p.terms))] = p
    return list(uniq.values())
