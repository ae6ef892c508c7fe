"""Polynomials in the two symmetric invariants s1, s3 over exact rationals.

A SigmaPoly is a sparse map from the packed key of s1^a * s3^b (slots 0
and 1, see sparse.py) to its rational coefficient, with `bound` >= a, b
over every term.  Zero coefficients are never stored.  The grading used
for degree bookkeeping is deg s1 = 1, deg s3 = 3.
"""
from __future__ import annotations

from .ratio import Q, QONE, QZERO, is_rational, qstr
from .sparse import add_into, mul_into, nonzero, pack, power, product_bound, unpack


class SigmaPoly:
    __slots__ = ("terms", "bound")

    def __init__(self, terms=None):
        """`terms` maps exponent pairs (a, b) of s1^a s3^b to rationals."""
        self.terms = {}
        self.bound = 0
        for (a, b), v in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError("sigma exponents must be nonnegative")
            if v != 0:
                self.terms[pack((a, b))] = v
                self.bound = max(self.bound, a, b)

    @classmethod
    def packed(cls, terms: dict, bound: int) -> "SigmaPoly":
        """Wrap a dict of nonzero terms on packed keys whose exponents are at
        most `bound`."""
        return _raw(terms, bound)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "SigmaPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "SigmaPoly":
        c = Q(c)
        return _raw({0: c} if c != 0 else {}, 0)

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
        return _raw(add_into(dict(self.terms), other.terms), max(self.bound, other.bound))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(add_into(dict(self.terms), other.terms, -1), max(self.bound, other.bound))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __neg__(self):
        return _raw({k: -v for k, v in self.terms.items()}, self.bound)

    def __mul__(self, other):
        if is_rational(other):
            if other == 0:
                return SigmaPoly()
            q = Q(other)
            return _raw({k: v * q for k, v in self.terms.items()}, self.bound)
        if not isinstance(other, SigmaPoly):
            return NotImplemented
        bound = product_bound((self.bound, (self.terms,)), (other.bound, (other.terms,)))
        return _raw(nonzero(mul_into({}, self.terms, other.terms)), bound)

    __rmul__ = __mul__

    def __truediv__(self, q):
        if not is_rational(q):
            return NotImplemented
        q = Q(q)
        return _raw({k: v / q for k, v in self.terms.items()}, self.bound)

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

    def items(self):
        """(exponent pair (a, b), coefficient) for every term."""
        return [(unpack(k, 2), v) for k, v in self.terms.items()]

    def degree(self) -> int:
        """Weighted degree with deg s1 = 1, deg s3 = 3; -1 for zero."""
        if not self.terms:
            return -1
        return max(a + 3 * b for (a, b), _ in self.items())

    def is_homogeneous(self, d: int) -> bool:
        return all(a + 3 * b == d for (a, b), _ in self.items())

    def homogeneous_part(self, d: int) -> "SigmaPoly":
        return SigmaPoly({k: v for k, v in self.items() if k[0] + 3 * k[1] == d})

    def evaluate(self, v1, v3):
        """Exact value at numeric (s1, s3)."""
        v1, v3 = Q(v1), Q(v3)
        total = QZERO
        for (a, b), c in self.items():
            total += c * v1**a * v3**b
        return total

    def evaluate_float(self, v1: float, v3: float) -> float:
        total = 0.0
        for (a, b), c in self.items():
            total += float(c) * v1**a * v3**b
        return total

    def sorted_terms(self):
        """Terms in canonical order: weighted degree, then s3 exponent."""
        return sorted(self.items(), key=lambda kv: (kv[0][0] + 3 * kv[0][1], kv[0][1]))

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


def _raw(terms: dict, bound: int) -> SigmaPoly:
    p = SigmaPoly.__new__(SigmaPoly)
    p.terms = terms
    p.bound = bound
    return p


def _coerce(x):
    if isinstance(x, SigmaPoly):
        return x
    if is_rational(x):
        return SigmaPoly.const(x)
    return NotImplemented
