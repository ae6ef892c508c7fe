"""Bernoulli numbers, CY-reduced power sums, the log Phi series and Q(n,k).

log Phi(z) = - sum_{i>=1} B_{2i}/(2i(2i-1)) (p^{2i-1}+q^{2i-1}+r^{2i-1}) z^{1-2i}

with the odd power sums rewritten in (s1, s3) through Newton's identities
under the local Calabi-Yau constraint pq + qr + rp = 0, i.e. with
elementary symmetric values e1 = -s1, e2 = 0, e3 = s1^3/3 - s3/6.
"""
from __future__ import annotations

from math import comb, factorial

from .ratio import Q, QONE, QZERO, is_rational
from .sigma import SigmaPoly
from .sparse import add_graded, mul_graded, power, product_bound

_INF = 1 << 60


class TruncationError(ValueError):
    """A series coefficient beyond the stored truncation order was requested."""


# -- Bernoulli numbers -------------------------------------------------------

_bernoulli_cache = [QONE, Q(-1, 2)]


def bernoulli(n: int):
    """B_n by the recurrence sum_k C(n+1, k) B_k = 0; convention B_1 = -1/2."""
    if n < 0:
        raise ValueError("negative Bernoulli index")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        if m % 2 == 1:
            _bernoulli_cache.append(QZERO)
            continue
        s = QZERO
        for k in range(m):
            if _bernoulli_cache[k]:
                s += comb(m + 1, k) * _bernoulli_cache[k]
        _bernoulli_cache.append(-s / (m + 1))
    return _bernoulli_cache[n]


# -- power sums under the CY condition ---------------------------------------

_E1 = SigmaPoly.s1() * Q(-1)
_E3 = SigmaPoly.monomial(3, 0, Q(1, 3)) + SigmaPoly.monomial(0, 1, Q(-1, 6))
_power_cache = [SigmaPoly.const(3), _E1]


def _power_sum_any(k: int) -> SigmaPoly:
    while len(_power_cache) <= k:
        m = len(_power_cache)
        if m == 2:
            p = _E1 * _E1
        elif m == 3:
            p = _E1 * _power_cache[2] + SigmaPoly.const(3) * _E3
        else:
            p = _E1 * _power_cache[m - 1] + _E3 * _power_cache[m - 3]
        _power_cache.append(p)
    return _power_cache[k]


def power_sum(k: int) -> SigmaPoly:
    """p^k + q^k + r^k as a polynomial in (s1, s3); k must be odd."""
    if k < 1 or k % 2 == 0:
        raise ValueError("power_sum consumes odd k >= 1")
    return _power_sum_any(k)


# -- truncated series in 1/z ---------------------------------------------------


class ZInvSeries:
    """Truncated series sum_n a_n z^{-n} with coefficients in Q[s1, s3].

    `grades` maps n to the coefficient of z^{-n} as a SigmaPoly term dict
    (packed keys of s1^a s3^b, rational values), with one exponent `bound`
    for all grades; `coeff` returns it as a SigmaPoly.
    `order` is the last reliable exponent: coefficients of z^{-n} are exact
    for all n <= order and must not be read beyond it.  Negative n (positive
    z powers) are allowed for shifted products.
    """

    __slots__ = ("order", "grades", "bound")

    def __init__(self, order: int, terms=None):
        """`terms` maps n to the SigmaPoly coefficient of z^{-n}."""
        kept = {n: c for n, c in (terms or {}).items() if c and n <= order}
        self.order = order
        self.grades = {n: c.terms for n, c in kept.items()}
        self.bound = max((c.bound for c in kept.values()), default=0)

    @classmethod
    def zero(cls, order: int = _INF) -> "ZInvSeries":
        return cls(order)

    @classmethod
    def const(cls, c, order: int = _INF) -> "ZInvSeries":
        sp = c if isinstance(c, SigmaPoly) else SigmaPoly.const(c)
        return cls(order, {0: sp})

    @classmethod
    def one(cls, order: int = _INF) -> "ZInvSeries":
        return cls.const(1, order)

    def coeff(self, n: int) -> SigmaPoly:
        if n > self.order:
            raise TruncationError(f"coefficient z^-{n} beyond order {self.order}")
        return SigmaPoly.packed(dict(self.grades.get(n, {})), self.bound)

    def valuation(self) -> int:
        return min(self.grades) if self.grades else _INF

    def __add__(self, other):
        other = self._coerce(other)
        return _zseries(min(self.order, other.order), add_graded(self.grades, other.grades),
                        max(self.bound, other.bound))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return _zseries(self.order, {n: {k: -v for k, v in t.items()} for n, t in self.grades.items()},
                        self.bound)

    def __mul__(self, other):
        if is_rational(other) or isinstance(other, SigmaPoly):
            other = ZInvSeries.const(other)
            order = self.order
        elif isinstance(other, ZInvSeries):
            order = min(self.order + other.valuation(), other.order + self.valuation(), _INF)
        else:
            return NotImplemented
        bound = product_bound((self.bound, self.grades.values()), (other.bound, other.grades.values()))
        return _zseries(order, mul_graded(self.grades, other.grades, order), bound)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, ZInvSeries.one())

    def __eq__(self, other):
        if not isinstance(other, ZInvSeries):
            return NotImplemented
        return self.order == other.order and self.grades == other.grades

    def ddz(self) -> "ZInvSeries":
        """d/dz; the truncation order improves by one."""
        out = {n + 1: {k: v * -n for k, v in t.items()} for n, t in self.grades.items() if n}
        return _zseries(self.order + 1 if self.order < _INF else _INF, out, self.bound)

    def mul_zpow(self, s: int) -> "ZInvSeries":
        """Multiply by z^s (shifts exponents down by s)."""
        order = self.order - s if self.order < _INF else _INF
        return _zseries(order, {n - s: t for n, t in self.grades.items()}, self.bound)

    def truncate(self, order: int) -> "ZInvSeries":
        if order > self.order:
            raise TruncationError(f"cannot extend order {self.order} to {order}")
        return _zseries(order, self.grades, self.bound)

    def exp(self) -> "ZInvSeries":
        """exp of a series with positive valuation."""
        if self.grades and self.valuation() < 1:
            raise ValueError("exp needs a series vanishing at z = infinity")
        if self.grades and self.order >= _INF:
            raise ValueError("exp of an untruncated series is not representable")
        order = self.order
        result = ZInvSeries.one(order)
        term = ZInvSeries.one()
        k = 0
        v = self.valuation()
        while (k + 1) * v <= order:
            k += 1
            term = term * self * Q(1, k)
            result = result + term
        return result

    def __repr__(self):
        bits = [f"z^-{n}*({self.coeff(n)!r})" for n in sorted(self.grades)]
        return f"ZInvSeries(order={self.order}: " + " + ".join(bits) + ")"

    @staticmethod
    def _coerce(x):
        if isinstance(x, ZInvSeries):
            return x
        if isinstance(x, SigmaPoly) or is_rational(x):
            return ZInvSeries.const(x)
        raise TypeError(f"cannot coerce {type(x)} to ZInvSeries")


def _zseries(order: int, grades: dict, bound: int) -> ZInvSeries:
    """Wrap a graded map of nonzero term dicts, dropping grades beyond order."""
    s = ZInvSeries.__new__(ZInvSeries)
    s.order = order
    s.grades = {n: t for n, t in grades.items() if n <= order}
    s.bound = bound
    return s


def binom_q(e, m: int):
    """Generalized binomial coefficient C(e, m) for rational e."""
    e = Q(e)
    out = QONE
    for i in range(m):
        out = out * (e - i)
    return out / factorial(m)


def binomial_zinv(e, c, order: int) -> ZInvSeries:
    """(1 + c/z)^e expanded to the given order, e rational."""
    terms = {m: SigmaPoly.const(binom_q(e, m) * Q(c) ** m) for m in range(order + 1)}
    return ZInvSeries(order, terms)


# -- the log Phi series and friends -------------------------------------------


def log_phi(order: int) -> ZInvSeries:
    """log Phi(z; s1, s3) truncated at z^-order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    terms = {}
    i = 1
    while 2 * i - 1 <= order:
        coeff = -bernoulli(2 * i) / (2 * i * (2 * i - 1))
        terms[2 * i - 1] = _power_sum_any(2 * i - 1) * coeff
        i += 1
    return ZInvSeries(order, terms)


def log_phi_shifted(order: int, shift) -> ZInvSeries:
    """log Phi(z - shift) expanded around z = infinity, truncated at z^-order."""
    shift = Q(shift)
    out = ZInvSeries(order)
    i = 1
    while 2 * i - 1 <= order:
        coeff = -bernoulli(2 * i) / (2 * i * (2 * i - 1))
        # (z - shift)^{1-2i} = z^{1-2i} (1 - shift/z)^{1-2i}
        expo = binomial_zinv(1 - 2 * i, -shift, order + 2 * i - 1).mul_zpow(1 - 2 * i)
        out = out + expo * (_power_sum_any(2 * i - 1) * coeff)
        i += 1
    return out.truncate(order)


def phi_d_inv_all(m_max: int, order: int) -> list:
    """u_m = Phi * d^m/dz^m (1/Phi) for m = 0..m_max, truncated at z^-order.

    By the chain rule u_{m+1} = u_m' + X_1 u_m with X_1 = -(log Phi)';
    X_1 has valuation 2, so each truncated u_m gives u_{m+1} exactly to the
    same order."""
    out = [ZInvSeries.one(order)]
    if m_max:
        x1 = -log_phi(order).ddz()
        for _ in range(m_max):
            u = out[-1]
            out.append((u.ddz() + x1 * u).truncate(order))
    return out


def q_number(n: int, k: int):
    """Q(n, k) = (1/k) sum_{i=1}^k (-1)^{i-1} C(k, i) i^{n+1}."""
    if n < 0 or not 1 <= k <= n + 1:
        raise ValueError(f"q_number index out of range: ({n}, {k})")
    s = 0
    for i in range(1, k + 1):
        t = comb(k, i) * i ** (n + 1)
        s += t if (i - 1) % 2 == 0 else -t
    return Q(s, k)


def double_factorial_odd(j: int):
    """(2j - 1)!! with the (-1)!! = 1 convention."""
    out = 1
    for i in range(1, j + 1):
        out *= 2 * i - 1
    return Q(out)
