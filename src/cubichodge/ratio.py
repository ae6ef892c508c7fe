"""Exact rational backend.

gmpy2's mpq is used when available; fractions.Fraction is a drop-in
fallback.  Both store lowest terms with a positive denominator, which the
canonical forms elsewhere rely on.  JetPoly keeps int numerators over one
denominator (a TSeries holds one JetPoly per degree) and makes rationals
only when it takes or gives them.
"""
from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    HAVE_GMPY2 = True

    def Q(a=0, b=None):
        """Exact rational a/b."""
        return _mpq(a) if b is None else _mpq(a, b)

    _RATIONAL_TYPES = (type(_mpq()), Fraction, int)
except ImportError:  # pragma: no cover - exercised only without gmpy2
    HAVE_GMPY2 = False

    def Q(a=0, b=None):
        """Exact rational a/b."""
        return Fraction(a) if b is None else Fraction(a, b)

    _RATIONAL_TYPES = (Fraction, int)

QZERO = Q(0)
QONE = Q(1)


def is_rational(x) -> bool:
    return isinstance(x, _RATIONAL_TYPES)


def qstr(q) -> str:
    """Text form 'num/den', with '/1' omitted."""
    n, d = q.numerator, q.denominator
    return f"{n}" if d == 1 else f"{n}/{d}"


def qjson(q) -> str:
    """JSON form 'num/den'; the denominator is always explicit."""
    return f"{q.numerator}/{q.denominator}"


def parse_q(s: str):
    """Parse 'num' or 'num/den' back into an exact rational."""
    s = s.strip()
    if "/" in s:
        n, _, d = s.partition("/")
        return Q(int(n), int(d))
    return Q(int(s))
