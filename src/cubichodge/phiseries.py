"""Bernoulli numbers, CY-reduced power sums, truncated power series, the
log Phi series and Q(n,k).

log Phi(z) = - sum_{i>=1} B_{2i}/(2i(2i-1)) (p^{2i-1}+q^{2i-1}+r^{2i-1}) z^{1-2i}

with the odd power sums rewritten in (s1, s3) through Newton's identities
under the local Calabi-Yau constraint pq + qr + rp = 0, i.e. with
elementary symmetric values e1 = -s1, e2 = 0, e3 = s1^3/3 - s3/6.

Power sums and series coefficients are JetPolys without jets.  TSeries is
the one truncated power series type over Q[s1, s3]: a map from each total
t-degree to the JetPoly of that degree's terms, t_i in the slot of z_i.  An
expansion at z = infinity is a TSeries in the single variable t = 1/z,
where `ddz` applies d/dz = -t^2 d/dt.
"""
from __future__ import annotations

from math import comb

from .jets import JetPoly
from .ratio import Q, QONE, QZERO, is_rational
from .sparse import SLOT_HALF, power, unpack


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

_E1 = JetPoly.monomial(-1, (1, 0), {})
_E3 = JetPoly.monomial(Q(1, 3), (3, 0), {}) + JetPoly.monomial(Q(-1, 6), (0, 1), {})
_power_cache = [JetPoly.const(3), _E1]


def _power_sum_any(k: int) -> JetPoly:
    while len(_power_cache) <= k:
        m = len(_power_cache)
        # Newton: p_m = e1 p_(m-1) + e3 p_(m-3) with e2 = 0, from p_0 = 3 at m = 3
        pairs = [(_E1, _power_cache[m - 1])] + ([(_E3, _power_cache[m - 3])] if m >= 3 else [])
        _power_cache.append(JetPoly.dot(pairs))
    return _power_cache[k]


def power_sum(k: int) -> JetPoly:
    """p^k + q^k + r^k as a polynomial in (s1, s3); k must be odd."""
    if k < 1 or k % 2 == 0:
        raise ValueError("power_sum consumes odd k >= 1")
    return _power_sum_any(k)


# -- truncated power series ---------------------------------------------------

DEGREE_MAX = SLOT_HALF - 1  # the largest d_max, and so t exponent, of a TSeries


class TSeries:
    """Total-degree truncated power series in t_0..t_{n_max} over Q[s1, s3].

    `grades` maps a total t-degree d <= d_max to the nonzero JetPoly of that
    degree's terms, with t_i in the slot of z_i: s1^a s3^b t_0^e_0 ...
    t_{n_max}^e_{n_max} is the jet monomial s1^a s3^b z_0^e_0 ...
    z_{n_max}^e_{n_max}.  Each grade is in lowest terms, so equal series
    compare equal, and every operation is the JetPoly one grade by grade.
    The constructor and `const` take coefficients that are JetPolys without
    jets (`const` a rational too), and `coefficient` and `coefficients` give
    them back as such; a jet in a coefficient would land in a t slot, so the
    constructor raises ValueError for one.
    A grade's t exponents add up to its degree, so both constructors raise
    ValueError past d_max = DEGREE_MAX; the arithmetic checks no key.
    """

    __slots__ = ("n_max", "d_max", "grades")

    def __init__(self, n_max: int, d_max: int, terms=None):
        """`terms` maps a t-exponent tuple to its coefficient, a JetPoly
        without jets."""
        if d_max > DEGREE_MAX:
            raise ValueError(f"d_max {d_max} is above DEGREE_MAX = {DEGREE_MAX}")
        parts = {}
        for k, c in (terms or {}).items():
            if c and sum(k) <= d_max:
                if len(k) != n_max + 1 or min(k) < 0:
                    raise ValueError("t-exponents must be n_max + 1 nonnegative ints")
                if not c.is_jet_free():
                    raise ValueError(f"the coefficient of t^{k} carries jets")
                for i, e in enumerate(k):
                    if e:
                        c = c.mul_z(i, e)
                parts.setdefault(sum(k), []).append(c)
        self.n_max = n_max
        self.d_max = d_max
        self.grades = {d: JetPoly.sum(p) for d, p in sorted(parts.items())}

    # -- constructors ------------------------------------------------------

    @classmethod
    def graded(cls, n_max: int, d_max: int, grades: dict) -> "TSeries":
        """The series of {degree: JetPoly of that degree's terms}; drops zero
        grades and degrees beyond d_max."""
        if d_max > DEGREE_MAX:
            raise ValueError(f"d_max {d_max} is above DEGREE_MAX = {DEGREE_MAX}")
        s = cls.__new__(cls)
        s.n_max = n_max
        s.d_max = d_max
        s.grades = {d: g for d, g in grades.items() if g and d <= d_max}
        return s

    @classmethod
    def zero(cls, n_max: int, d_max: int) -> "TSeries":
        return cls(n_max, d_max)

    @classmethod
    def const(cls, c, n_max: int, d_max: int) -> "TSeries":
        c = c if isinstance(c, JetPoly) else JetPoly.const(c)
        return cls(n_max, d_max, {(0,) * (n_max + 1): c})

    @classmethod
    def t(cls, i: int, n_max: int, d_max: int) -> "TSeries":
        key = [0] * (n_max + 1)
        key[i] = 1
        return cls(n_max, d_max, {tuple(key): JetPoly.one()})

    # -- ring ops ------------------------------------------------------------

    def _check(self, other: "TSeries") -> int:
        if self.n_max != other.n_max:
            raise ValueError("t-variable count mismatch")
        return min(self.d_max, other.d_max)

    def __add__(self, other):
        d_max = self._check(other)
        a, b = self.grades, other.grades
        zero = JetPoly()
        grades = {d: JetPoly.sum((a.get(d, zero), b.get(d, zero))) for d in sorted(a.keys() | b.keys())}
        return TSeries.graded(self.n_max, d_max, grades)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return TSeries.graded(self.n_max, self.d_max, {d: -g for d, g in self.grades.items()})

    def __mul__(self, other):
        if is_rational(other):
            return TSeries.graded(self.n_max, self.d_max,
                                  {d: g * other for d, g in self.grades.items()})
        if isinstance(other, JetPoly):
            other = TSeries.const(other, self.n_max, self.d_max)
        elif not isinstance(other, TSeries):
            return NotImplemented
        d_max = self._check(other)
        pairs = {}
        for i, a in self.grades.items():
            for j, b in other.grades.items():
                if i + j <= d_max:
                    pairs.setdefault(i + j, []).append((a, b))
        return TSeries.graded(self.n_max, d_max,
                              {d: JetPoly.dot(p) for d, p in sorted(pairs.items())})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, TSeries.const(1, self.n_max, self.d_max))

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return (self.n_max, self.d_max, self.grades) == (other.n_max, other.d_max, other.grades)

    def __bool__(self):
        return bool(self.grades)

    # -- calculus and series inverses -------------------------------------------

    def diff(self, i: int) -> "TSeries":
        # grade d_max of the derivative needs grade d_max + 1 of the series
        return TSeries.graded(self.n_max, self.d_max - 1,
                              {d - 1: g.partial(i) for d, g in self.grades.items()})

    def coefficients(self, scale=None) -> dict:
        """{t-exponent tuple: JetPoly} over every nonzero coefficient.  With
        `scale`, each coefficient is multiplied by the int scale(t-exponent
        tuple) before its one reduction."""
        n = self.n_max + 1
        by_key = scale and (lambda tk: scale(unpack(tk, n)))
        return {unpack(tk, n): c for g in self.grades.values()
                for tk, c in g.sigma_parts(by_key).items()}

    def constant_term(self) -> JetPoly:
        return self.coefficient((0,) * (self.n_max + 1))

    def coefficient(self, exponents) -> JetPoly:
        d = sum(exponents)
        if d > self.d_max:
            raise TruncationError(f"monomial of degree {d} beyond the degree truncation {self.d_max}")
        grade = self.grades.get(d)
        return grade.sigma_coefficient(dict(enumerate(exponents))) if grade else JetPoly()

    def _negated_grades(self, name: str) -> dict:
        """{d: -F_d} over the grades d >= 1 of a series F with constant term 1."""
        if self.constant_term() != JetPoly.one():
            raise ValueError(f"{name} needs constant term 1")
        return {d: -g for d, g in self.grades.items() if d}

    def recip(self) -> "TSeries":
        """1/self for a series with constant term 1: R F = 1 gives R_0 = 1
        and R_d = -sum_{k=1..d} F_k R_{d-k}, one JetPoly.dot per grade."""
        nf = self._negated_grades("recip")
        r = {0: JetPoly.one()}
        for d in range(1, self.d_max + 1):
            r[d] = JetPoly.dot([(g, r[d - k]) for k, g in nf.items() if k <= d])
        return TSeries.graded(self.n_max, self.d_max, r)

    def log(self) -> "TSeries":
        """log(self) for a series with constant term 1.  The Euler operator
        D = sum t_i d/dt_i multiplies grade d by d, and F D(log F) = D F
        gives d L_d = d F_d - sum_{k=1..d-1} (k L_k) F_{d-k}, one
        JetPoly.dot per grade."""
        nf = self._negated_grades("log")
        kl = {}  # d -> d L_d
        for d in range(1, self.d_max + 1):
            pairs = [(g, nf[d - k]) for k, g in kl.items() if d - k in nf]
            if d in nf:
                pairs.append((nf[d], JetPoly.const(-d)))
            kl[d] = JetPoly.dot(pairs)
        return TSeries.graded(self.n_max, self.d_max, {d: g * Q(1, d) for d, g in kl.items()})

    def exp(self) -> "TSeries":
        """exp(self) for a series A with constant term 0: with the Euler
        operator D as in `log`, D E = (D A) E gives E_0 = 1 and
        E_d = (1/d) sum_{k=1..d} (k A_k) E_{d-k}, one JetPoly.dot per grade."""
        if self.constant_term():
            raise ValueError("exp needs constant term 0")
        ka = {k: a * k for k, a in self.grades.items()}
        e = {0: JetPoly.one()}
        for d in range(1, self.d_max + 1):
            e[d] = JetPoly.dot([(a, e[d - k]) for k, a in ka.items() if k <= d]) * Q(1, d)
        return TSeries.graded(self.n_max, self.d_max, e)


def ddz(s: TSeries) -> TSeries:
    """d/dz = -t^2 d/dt of a series in the one variable t = 1/z: the t^n
    coefficient moves to t^(n+1), times -n; the result is exact one degree
    further."""
    return TSeries.graded(0, s.d_max + 1, {n + 1: g.mul_z(0) * -n for n, g in s.grades.items()})


def binomial_zinv(e, c, order: int) -> TSeries:
    """(1 + c/z)^e expanded to the given order in t = 1/z, e rational: the
    t^(m+1) coefficient is the t^m one times (e - m) c / (m + 1)."""
    e, c = Q(e), Q(c)
    grades = {}
    term = QONE
    for m in range(order + 1):
        grades[m] = JetPoly.monomial(term, (0, 0), {0: m})
        term = term * (e - m) * c / (m + 1)
    return TSeries.graded(0, order, grades)


# -- the log Phi series and friends -------------------------------------------


def log_phi(order: int) -> TSeries:
    """log Phi(z; s1, s3) in t = 1/z, truncated at t^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    terms = {}
    i = 1
    while 2 * i - 1 <= order:
        coeff = -bernoulli(2 * i) / (2 * i * (2 * i - 1))
        terms[(2 * i - 1,)] = _power_sum_any(2 * i - 1) * coeff
        i += 1
    return TSeries(0, order, terms)


def log_phi_shifted(order: int, shift) -> TSeries:
    """log Phi(z - shift) expanded around z = infinity, truncated at t^order:
    each term c_n z^-n of log Phi becomes c_n t^n (1 - shift t)^-n, whose
    t^d coefficient is c_n C(d-1, d-n) shift^(d-n).  With shift = p/q in
    ints, each degree is one int-weighted sum, weights C(d-1, d-n) p^(d-n)
    q^(n-1), divided by q^(d-1); an integral shift has q = 1."""
    shift = Q(shift)
    p, q = shift.numerator, shift.denominator
    coeffs = {n: c for (n,), c in log_phi(order).coefficients().items()}
    grades = {d: (JetPoly.sum(coeffs.values(), [comb(d - 1, d - n) * p ** (d - n) * q ** (n - 1)
                                                if n <= d else 0 for n in coeffs])
                  / q ** (d - 1)).mul_z(0, d)
              for d in range(1, order + 1)}
    return TSeries.graded(0, order, grades)


def phi_d_inv_all(m_max: int, order: int) -> list:
    """u_m = Phi * d^m/dz^m (1/Phi) for m = 0..m_max as series in t = 1/z,
    truncated at t^order.

    By the chain rule u_{m+1} = u_m' + X_1 u_m with X_1 = -(log Phi)';
    X_1 starts at t^2 and the derivative is exact one degree further, so
    each truncated u_m gives u_{m+1} exactly to the same order."""
    out = [TSeries.const(1, 0, order)]
    if m_max:
        x1 = -ddz(log_phi(order))
        for _ in range(m_max):
            u = out[-1]
            out.append(ddz(u) + x1 * u)
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
