"""Polynomials in the formal loop-equation variable Theta with JetPoly coefficients.

Theta stands for 1/(1 - e^{z0}/mu) with mu never assigned a value; every
identity downstream holds coefficient-wise in Theta.  The two derivations:

  derive:   d = sum z_{k+1} d/dz_k, with d(Theta) = z1 (Theta^2 - Theta)
  xi_euler: xi d/dxi = Theta (Theta - 1) d/dTheta, jets held constant

where xi = (Theta - 1)/Theta.
"""
from __future__ import annotations

from .jets import CutoffError, JetPoly
from .ratio import is_rational
from .sigma import SigmaPoly


class ThetaPoly:
    __slots__ = ("cutoff", "coeffs")

    def __init__(self, cutoff: int, coeffs=()):
        self.cutoff = cutoff
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        for c in cs:
            if c.cutoff != cutoff:
                raise CutoffError("coefficient cutoff mismatch")
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, cutoff: int) -> "ThetaPoly":
        return cls(cutoff)

    @classmethod
    def theta(cls, cutoff: int, power: int = 1) -> "ThetaPoly":
        cs = [JetPoly.zero(cutoff)] * power + [JetPoly.one(cutoff)]
        return cls(cutoff, cs)

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> JetPoly:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return JetPoly.zero(self.cutoff)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return self.cutoff == other.cutoff and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.cutoff, self.coeffs))

    # -- ring operations --------------------------------------------------

    def _check(self, other: "ThetaPoly"):
        if self.cutoff != other.cutoff:
            raise CutoffError("cutoff mismatch")

    def __add__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return ThetaPoly.sum(self.cutoff, (self, other))

    def __sub__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return ThetaPoly.sum(self.cutoff, (self, -other))

    def __neg__(self):
        return ThetaPoly(self.cutoff, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, ThetaPoly):
            self._check(other)
            pairs = [[] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    pairs[i + j].append((a, b))
            return ThetaPoly(self.cutoff, [JetPoly.dot(self.cutoff, ps) for ps in pairs])
        if isinstance(other, (JetPoly, SigmaPoly)) or is_rational(other):
            return ThetaPoly(self.cutoff, [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, q):
        if not is_rational(q):
            return NotImplemented
        return ThetaPoly(self.cutoff, [c / q for c in self.coeffs])

    @classmethod
    def sum(cls, cutoff: int, polys) -> "ThetaPoly":
        """The sum of the polys: each Theta coefficient is accumulated once."""
        parts: list[list[JetPoly]] = []
        for tp in polys:
            if tp.cutoff != cutoff:
                raise CutoffError("cutoff mismatch")
            parts.extend([] for _ in range(len(tp.coeffs) - len(parts)))
            for d, c in enumerate(tp.coeffs):
                parts[d].append(c)
        return cls(cutoff, [JetPoly.sum(cutoff, ps) for ps in parts])

    @classmethod
    def dot(cls, cutoff: int, pairs) -> "ThetaPoly":
        """sum tp * w over the (ThetaPoly tp, JetPoly w) pairs: one JetPoly.dot
        per Theta power."""
        pairs = list(pairs)
        for tp, w in pairs:
            if tp.cutoff != cutoff or w.cutoff != cutoff:
                raise CutoffError("cutoff mismatch")
        top = max((len(tp.coeffs) for tp, _ in pairs), default=0)
        return cls(cutoff, [JetPoly.dot(cutoff, [(tp.coeffs[d], w) for tp, w in pairs
                                                 if d < len(tp.coeffs)])
                            for d in range(top)])

    # -- derivations --------------------------------------------------------

    def derive(self) -> "ThetaPoly":
        """Full derivation: jets via d(z_k) = z_{k+1}, Theta via the chain rule;
        since d(Theta) = z1 Theta (Theta - 1), the Theta part is z1 xi_euler."""
        parts = [[c.derive()] for c in self.coeffs] + [[]]
        for d, c in enumerate(self.xi_euler().coeffs):
            parts[d].append(c.mul_z(1))
        return ThetaPoly(self.cutoff, [JetPoly.sum(self.cutoff, ps) for ps in parts])

    def xi_euler(self) -> "ThetaPoly":
        """Theta (Theta - 1) d/dTheta, treating JetPoly coefficients as constants."""
        n = len(self.coeffs)
        if n == 0:
            return self
        parts: list[list[JetPoly]] = [[] for _ in range(n + 1)]
        for d, c in enumerate(self.coeffs):
            if d == 0 or not c:
                continue
            parts[d + 1].append(c * d)
            parts[d].append(c * -d)
        return ThetaPoly(self.cutoff, [JetPoly.sum(self.cutoff, ps) for ps in parts])

    def max_jet_index(self) -> int:
        return max((c.max_index() for c in self.coeffs), default=-1)

    def __repr__(self):
        from .textform import jet_text

        bits = [f"T^{d}*({jet_text(c)})" for d, c in enumerate(self.coeffs) if c]
        return "ThetaPoly(" + (" + ".join(bits) if bits else "0") + ")"
