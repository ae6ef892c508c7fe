"""Sparse Laurent polynomials in the jet variables z0, z1, z2, ... over Q[s1, s3].

A JetPoly lives in Q[s1, s3][z0][z1^(+-1)][z2, ..., zM] for a declared jet
cutoff M.  Internally each term is keyed by a flat exponent tuple

    (sa, sb, e0, e1, ..., eM)

with the rational coefficient as the value; sa, sb are the s1, s3
exponents.  Only e1 (the z1 slot) may be negative.  The flat layout keeps
the hot ring operations to one dict merge per product, which matters at
genus 4 and above.

Operands of ring operations must share the cutoff; `derive` raises
CutoffError instead of silently dropping a z index that would exceed it.
"""
from __future__ import annotations

from .ratio import Q, QONE, QZERO, is_rational
from .sigma import SigmaPoly
from .sparse import add_into, mul_into, nonzero, power


class CutoffError(ValueError):
    """A jet index would exceed the declared cutoff, or cutoffs disagree."""


class ExactDivisionError(ArithmeticError):
    """Division in the jet ring left a remainder."""


class JetPoly:
    __slots__ = ("cutoff", "terms")

    def __init__(self, cutoff: int, terms=None):
        if cutoff < 1:
            raise ValueError("cutoff must allow at least z0, z1")
        self.cutoff = cutoff
        if terms is None:
            self.terms = {}
        else:
            n = cutoff + 3
            for k in terms:
                if len(k) != n:
                    raise CutoffError("term key does not match cutoff")
            self.terms = {k: v for k, v in terms.items() if v != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, cutoff: int) -> "JetPoly":
        return cls(cutoff)

    @classmethod
    def const(cls, c, cutoff: int) -> "JetPoly":
        c = Q(c)
        if c == 0:
            return cls(cutoff)
        return cls(cutoff, {(0,) * (cutoff + 3): c})

    @classmethod
    def one(cls, cutoff: int) -> "JetPoly":
        return cls.const(1, cutoff)

    @classmethod
    def from_sigma(cls, sp: SigmaPoly, cutoff: int) -> "JetPoly":
        zeros = (0,) * (cutoff + 1)
        return cls(cutoff, {(a, b) + zeros: c for (a, b), c in sp.terms.items()})

    @classmethod
    def z(cls, k: int, cutoff: int, power: int = 1) -> "JetPoly":
        if not 0 <= k <= cutoff:
            raise CutoffError(f"z{k} outside cutoff {cutoff}")
        if power < 0 and k != 1:
            raise ValueError("only z1 may carry a negative exponent")
        key = [0] * (cutoff + 3)
        key[2 + k] = power
        return cls(cutoff, {tuple(key): QONE})

    @classmethod
    def monomial(cls, c, sigma, jets, cutoff: int) -> "JetPoly":
        """Single term c * s1^sigma[0] * s3^sigma[1] * prod zk^jets[k]."""
        c = Q(c)
        if c == 0:
            return cls(cutoff)
        key = [0] * (cutoff + 3)
        key[0], key[1] = sigma
        for k, e in jets.items():
            if not 0 <= k <= cutoff:
                raise CutoffError(f"z{k} outside cutoff {cutoff}")
            if e < 0 and k != 1:
                raise ValueError("only z1 may carry a negative exponent")
            key[2 + k] = e
        return cls(cutoff, {tuple(key): c})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "JetPoly"):
        if self.cutoff != other.cutoff:
            raise CutoffError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def __add__(self, other):
        if not isinstance(other, JetPoly):
            return NotImplemented
        self._check(other)
        return _raw(self.cutoff, add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, JetPoly):
            return NotImplemented
        self._check(other)
        return _raw(self.cutoff, add_into(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return _raw(self.cutoff, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, JetPoly):
            self._check(other)
            return _raw(self.cutoff, nonzero(mul_into({}, self.terms, other.terms)))
        if is_rational(other):
            if other == 0:
                return JetPoly(self.cutoff)
            q = Q(other)
            return _raw(self.cutoff, {k: v * q for k, v in self.terms.items()})
        if isinstance(other, SigmaPoly):
            return self * JetPoly.from_sigma(other, self.cutoff)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, q):
        if not is_rational(q):
            return NotImplemented
        q = Q(q)
        return _raw(self.cutoff, {k: v / q for k, v in self.terms.items()})

    def __pow__(self, n: int):
        return power(self, n, JetPoly.one(self.cutoff))

    def __eq__(self, other):
        if not isinstance(other, JetPoly):
            return NotImplemented
        return self.cutoff == other.cutoff and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.cutoff, frozenset(self.terms.items())))

    # -- calculus -------------------------------------------------------

    def derive(self) -> "JetPoly":
        """The derivation sum_k z_{k+1} d/dz_k on the jet variables."""
        M = self.cutoff
        if any(key[2 + M] for key in self.terms):
            raise CutoffError(f"derive needs z{M + 1} beyond cutoff {M}")
        out = {}
        for k in range(M):
            add_into(out, self.partial(k).mul_z(k + 1).terms)
        return _raw(M, out)

    def partial(self, k: int) -> "JetPoly":
        """d/dz_k."""
        if not 0 <= k <= self.cutoff:
            raise CutoffError(f"z{k} outside cutoff {self.cutoff}")
        out = {}
        i = 2 + k
        for key, c in self.terms.items():
            e = key[i]
            if e == 0:
                continue
            nk = key[:i] + (e - 1,) + key[i + 1:]
            out[nk] = c * e
        return _raw(self.cutoff, out)

    def mul_z(self, k: int, power: int = 1) -> "JetPoly":
        """Fast multiply by z_k^power."""
        if not 0 <= k <= self.cutoff:
            raise CutoffError(f"z{k} outside cutoff {self.cutoff}")
        i = 2 + k
        out = {}
        for key, c in self.terms.items():
            e = key[i] + power
            if e < 0 and k != 1:
                raise ValueError("only z1 may carry a negative exponent")
            out[key[:i] + (e,) + key[i + 1:]] = c
        return _raw(self.cutoff, out)

    # -- views and queries -----------------------------------------------

    def items(self):
        return self.terms.items()

    def max_index(self) -> int:
        """Highest k with z_k actually present; -1 when jet-free."""
        top = -1
        for key in self.terms:
            for k in range(self.cutoff, top, -1):
                if key[2 + k]:
                    top = k
                    break
        return top

    def is_jet_free(self) -> bool:
        return self.max_index() < 0

    def as_sigma(self) -> SigmaPoly:
        if not self.is_jet_free():
            raise ValueError("polynomial still carries jet variables")
        return SigmaPoly({(k[0], k[1]): v for k, v in self.terms.items()})

    def sigma_coefficient(self, jets) -> SigmaPoly:
        """Coefficient of the jet monomial given as {k: exponent}."""
        want = [0] * (self.cutoff + 1)
        for k, e in jets.items():
            want[k] = e
        want = tuple(want)
        return SigmaPoly({(k[0], k[1]): v for k, v in self.terms.items() if k[2:] == want})

    def with_cutoff(self, new: int) -> "JetPoly":
        if new == self.cutoff:
            return self
        if new > self.cutoff:
            pad = (0,) * (new - self.cutoff)
            return _raw(new, {k + pad: v for k, v in self.terms.items()})
        drop = self.cutoff - new
        out = {}
        for k, v in self.terms.items():
            if any(k[-drop:]):
                raise CutoffError(f"term uses jets above z{new}")
            out[k[:-drop]] = v
        return _raw(new, out)

    def subs_jets(self, values) -> SigmaPoly:
        """Evaluate the jet variables at exact rationals; z1 may be inverted."""
        out = {}
        for key, c in self.terms.items():
            q = c
            for k in range(self.cutoff + 1):
                e = key[2 + k]
                if e == 0:
                    continue
                v = Q(values[k])
                if v == 0:
                    if e < 0:
                        raise ZeroDivisionError("negative power of zero jet value")
                    q = QZERO
                    break
                q = q * v**e
            if q:
                add_into(out, {key[:2]: q})
        return SigmaPoly(out)

    def weighted_degrees(self, jet_weight, s1_weight: int = 0, s3_weight: int = 0):
        """Set of term degrees under deg z_k = jet_weight(k)."""
        degs = set()
        for key in self.terms:
            d = key[0] * s1_weight + key[1] * s3_weight
            for k in range(self.cutoff + 1):
                e = key[2 + k]
                if e:
                    d += e * jet_weight(k)
            degs.add(d)
        return degs

    def is_homogeneous(self, degree: int, jet_weight, s1_weight: int = 0, s3_weight: int = 0) -> bool:
        degs = self.weighted_degrees(jet_weight, s1_weight, s3_weight)
        return degs <= {degree}

    # -- division ---------------------------------------------------------

    def exact_div(self, d: "JetPoly") -> "JetPoly":
        """Exact quotient self / d by a single-term d; raises ExactDivisionError
        on a remainder or a multi-term divisor."""
        self._check(d)
        if not d.terms:
            raise ZeroDivisionError("division by the zero JetPoly")
        if len(d.terms) != 1:
            raise ExactDivisionError("divisor is not a single monomial")
        (dk, dc), = d.terms.items()
        out = {}
        for k, c in self.terms.items():
            nk = tuple(map(int.__sub__, k, dk))
            if nk[0] < 0 or nk[1] < 0 or nk[2] < 0 or any(e < 0 for e in nk[4:]):
                raise ExactDivisionError("monomial divisor does not divide a term")
            out[nk] = c / dc
        return _raw(self.cutoff, out)

    def __repr__(self):
        from .textform import jet_text

        return f"JetPoly[{self.cutoff}]({jet_text(self)})"


def _raw(cutoff: int, terms: dict) -> JetPoly:
    p = JetPoly.__new__(JetPoly)
    p.cutoff = cutoff
    p.terms = terms
    return p
