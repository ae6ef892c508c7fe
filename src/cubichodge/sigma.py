"""Polynomials in the two symmetric invariants s1, s3 over exact rationals.

A SigmaPoly is a sparse map (a, b) -> coefficient for the monomial
s1^a * s3^b.  Zero coefficients are never stored.  The grading used for
degree bookkeeping is deg s1 = 1, deg s3 = 3.
"""
from __future__ import annotations

from .ratio import Q, QONE, QZERO, is_rational, qstr
from .sparse import add_into, mul_into, nonzero, power


class SigmaPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: v for k, v in terms.items() if v != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "SigmaPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "SigmaPoly":
        c = Q(c)
        return cls({(0, 0): c}) if c != 0 else cls()

    @classmethod
    def one(cls) -> "SigmaPoly":
        return cls.const(1)

    @classmethod
    def s1(cls, power: int = 1) -> "SigmaPoly":
        return cls({(power, 0): QONE})

    @classmethod
    def s3(cls, power: int = 1) -> "SigmaPoly":
        return cls({(0, power): QONE})

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "SigmaPoly":
        if a < 0 or b < 0:
            raise ValueError("sigma exponents must be nonnegative")
        c = Q(c)
        return cls({(a, b): c}) if c != 0 else cls()

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(add_into(dict(self.terms), other.terms, -1))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __neg__(self):
        return _raw({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if is_rational(other):
            if other == 0:
                return SigmaPoly()
            q = Q(other)
            return _raw({k: v * q for k, v in self.terms.items()})
        if not isinstance(other, SigmaPoly):
            return NotImplemented
        return _raw(nonzero(mul_into({}, self.terms, other.terms)))

    __rmul__ = __mul__

    def __truediv__(self, q):
        if not is_rational(q):
            return NotImplemented
        q = Q(q)
        return _raw({k: v / q for k, v in self.terms.items()})

    def __pow__(self, n: int):
        return power(self, n, SigmaPoly.one())

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0)}

    def degree(self) -> int:
        """Weighted degree with deg s1 = 1, deg s3 = 3; -1 for zero."""
        if not self.terms:
            return -1
        return max(a + 3 * b for a, b in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(a + 3 * b == d for a, b in self.terms)

    def homogeneous_part(self, d: int) -> "SigmaPoly":
        return SigmaPoly({k: v for k, v in self.terms.items() if k[0] + 3 * k[1] == d})

    def evaluate(self, v1, v3):
        """Exact value at numeric (s1, s3)."""
        v1, v3 = Q(v1), Q(v3)
        total = QZERO
        for (a, b), c in self.terms.items():
            total += c * v1**a * v3**b
        return total

    def evaluate_float(self, v1: float, v3: float) -> float:
        total = 0.0
        for (a, b), c in self.terms.items():
            total += float(c) * v1**a * v3**b
        return total

    def sorted_terms(self):
        """Terms in canonical order: weighted degree, then s3 exponent."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + 3 * kv[0][1], kv[0][1]))

    def __repr__(self):
        if not self.terms:
            return "SigmaPoly(0)"
        bits = []
        for (a, b), c in self.sorted_terms():
            mono = "".join(
                (f"*s1^{a}" if a > 1 else "*s1" if a == 1 else "",
                 f"*s3^{b}" if b > 1 else "*s3" if b == 1 else ""))
            bits.append(f"({qstr(c)}){mono}")
        return "SigmaPoly(" + " + ".join(bits) + ")"


def _raw(terms: dict) -> SigmaPoly:
    p = SigmaPoly.__new__(SigmaPoly)
    p.terms = terms
    return p


def _coerce(x):
    if isinstance(x, SigmaPoly):
        return x
    if is_rational(x):
        return SigmaPoly.const(x)
    return NotImplemented
