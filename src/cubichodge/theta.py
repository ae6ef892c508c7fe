"""Polynomials in the formal loop-equation variable Theta with JetPoly coefficients.

A ThetaPoly is its coefficients alone; like a JetPoly it declares no jet
bound, so derive may reach any z_k.  Its arithmetic is JetPoly.dot and
JetPoly.sum per coefficient, which check no key (loop.py bounds a solve's).

Theta stands for 1/(1 - e^{z0}/mu) with mu never assigned a value; every
identity downstream holds coefficient-wise in Theta.  A ThetaPoly holds the
coefficients of the Stirling basis

  pi_m = (Theta (1 - Theta) d/dTheta)^(m-1) Theta,   m >= 1,

(Comtet, Advanced Combinatorics, ch. 5).  pi_m has Theta degree m and no
constant term, and its Theta^a coefficient is (-1)^(a-1) (a-1)! S(m, a) =
q_number(m-1, a); `powers` converts to powers of Theta.  In xi (below),
Theta = 1/(1 - xi) and

  pi_m = sum_{j>=0} (-j)^(m-1) xi^j,   0^0 = 1,

oracles.pi_xi_weights gives the weights (-j)^(m-1), and
oracles.q_geometric_check proves the identity through the powers of Theta.
The two derivations:

  xi_euler: xi d/dxi = Theta (Theta - 1) d/dTheta, jets held constant,
            so pi_m -> -pi_(m+1)
  derive:   d = sum z_{k+1} d/dz_k, with d(Theta) = z1 (Theta^2 - Theta),
            so d = (jets entry by entry) + z1 xi_euler

where xi = (Theta - 1)/Theta.
"""
from __future__ import annotations

from .jets import JetPoly
from .phiseries import q_number
from .ratio import is_rational


_MINUS_Z1 = JetPoly.monomial(-1, (0, 0), {1: 1})


class ThetaPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        """coeffs[m-1] is the coefficient of pi_m."""
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "ThetaPoly":
        return cls()

    @classmethod
    def theta(cls) -> "ThetaPoly":
        """Theta = pi_1."""
        return cls([JetPoly.one()])

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        """The Theta degree, which is the largest m with a pi_m term."""
        return len(self.coeffs)

    def coeff(self, m: int) -> JetPoly:
        """The coefficient of pi_m."""
        if 1 <= m <= len(self.coeffs):
            return self.coeffs[m - 1]
        return JetPoly.zero()

    def powers(self) -> list[JetPoly]:
        """The Theta^a coefficients, a = 0..degree."""
        return [JetPoly.zero()] + [
            JetPoly.sum([c * q_number(k, a) for k, c in enumerate(self.coeffs[a - 1:], a - 1)])
            for a in range(1, len(self.coeffs) + 1)]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    # -- linear operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return ThetaPoly.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, ThetaPoly):
            return NotImplemented
        return ThetaPoly.sum((self, -other))

    def __neg__(self):
        return ThetaPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, JetPoly) or is_rational(other):
            return ThetaPoly([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    @classmethod
    def sum(cls, polys) -> "ThetaPoly":
        """The sum of the polys: each pi_m coefficient is accumulated once."""
        parts: list[list[JetPoly]] = []
        for tp in polys:
            parts.extend([] for _ in range(len(tp.coeffs) - len(parts)))
            for d, c in enumerate(tp.coeffs):
                parts[d].append(c)
        return cls([JetPoly.sum(ps) for ps in parts])

    @classmethod
    def dot(cls, pairs) -> "ThetaPoly":
        """sum tp * w over the (ThetaPoly tp, JetPoly w) pairs: one JetPoly.dot
        per pi_m."""
        pairs = list(pairs)
        top = max((len(tp.coeffs) for tp, _ in pairs), default=0)
        return cls([JetPoly.dot([(tp.coeffs[d], w) for tp, w in pairs if d < len(tp.coeffs)])
                    for d in range(top)])

    # -- derivations --------------------------------------------------------

    def derive(self, pairs=()) -> "ThetaPoly":
        """Full derivation plus sum tp * w over the (ThetaPoly tp, JetPoly w)
        pairs, one JetPoly.dot per pi_m: jets via d(z_k) = z_{k+1}, Theta by
        the chain rule; since d(Theta) = z1 Theta (Theta - 1), the Theta part
        is z1 xi_euler, which adds -z1 times the pi_(m-1) coefficient.  The
        solver builds each L_i = derive(L_(i-1)) + P_{0,i} by one call;
        oracles.chain_rule_check and the tests compare it with the f-table
        route derive^n h = sum_j f_{n,j} xi_euler^j h."""
        pairs = list(pairs)
        top = max([len(self.coeffs) + 1] + [len(tp.coeffs) for tp, _ in pairs])
        cs = self.coeffs + (JetPoly.zero(),) * (top - len(self.coeffs))
        return ThetaPoly([JetPoly.dot([(tp.coeffs[d], w) for tp, w in pairs if d < len(tp.coeffs)]
                                      + ([(cs[d - 1], _MINUS_Z1)] if d else []), cs[d])
                          for d in range(top)])

    def xi_euler(self) -> "ThetaPoly":
        """Theta (Theta - 1) d/dTheta, treating JetPoly coefficients as
        constants: pi_m -> -pi_(m+1)."""
        if not self.coeffs:
            return self
        return ThetaPoly([JetPoly.zero()] + [-c for c in self.coeffs])

    def max_jet_index(self) -> int:
        return max((c.max_index() for c in self.coeffs), default=-1)

    def __repr__(self):
        from .textform import jet_text

        bits = [f"pi_{m}*({jet_text(c)})" for m, c in enumerate(self.coeffs, 1) if c]
        return "ThetaPoly(" + (" + ".join(bits) if bits else "0") + ")"
