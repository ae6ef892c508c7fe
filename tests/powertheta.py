"""The power-basis reference for Theta polynomials and the loop-equation terms.

`PowerTheta` stores a Theta polynomial by its Theta^a coefficients, a =
0..degree, with the ring operations and both derivations written out on
powers:

  derive:   d = sum z_{k+1} d/dz_k, with d(Theta) = z1 (Theta^2 - Theta)
  xi_euler: Theta (Theta - 1) d/dTheta, jets held constant

`PowerRoute` builds P~, the dressed P_{a,b}, L_i and RHS_g from these
operations alone: P~ is recursed in powers from row 0 (frozen in powers by
`FROZEN_ROW0_N25_SHA256`), and every P_{a,b} is dressed term by term.  The
solver's results are compared with it through `ThetaPoly.powers()`.
"""
from __future__ import annotations

from math import comb

from cubichodge.jets import JetPoly
from cubichodge.ratio import Q, is_rational


class PowerTheta:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, tp) -> "PowerTheta":
        """A ThetaPoly in the power basis."""
        return cls(tp.powers())

    @classmethod
    def theta(cls, power: int = 1) -> "PowerTheta":
        return cls([JetPoly.zero()] * power + [JetPoly.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> JetPoly:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return JetPoly.zero()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PowerTheta):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        return PowerTheta.sum((self, other))

    def __sub__(self, other):
        return PowerTheta.sum((self, -other))

    def __neg__(self):
        return PowerTheta([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, PowerTheta):
            pairs = [[] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    pairs[i + j].append((a, b))
            return PowerTheta([JetPoly.dot(ps) for ps in pairs])
        if isinstance(other, JetPoly) or is_rational(other):
            return PowerTheta([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    @classmethod
    def sum(cls, polys) -> "PowerTheta":
        parts: list[list[JetPoly]] = []
        for tp in polys:
            parts.extend([] for _ in range(len(tp.coeffs) - len(parts)))
            for d, c in enumerate(tp.coeffs):
                parts[d].append(c)
        return cls([JetPoly.sum(ps) for ps in parts])

    def derive(self) -> "PowerTheta":
        """Jets via d(z_k) = z_{k+1}; Theta via d(Theta) = z1 Theta (Theta - 1)."""
        parts = [[c.derive()] for c in self.coeffs] + [[]]
        for d, c in enumerate(self.xi_euler().coeffs):
            parts[d].append(c.mul_z(1))
        return PowerTheta([JetPoly.sum(ps) for ps in parts])

    def xi_euler(self) -> "PowerTheta":
        """Theta (Theta - 1) d/dTheta: Theta^d -> d Theta^(d+1) - d Theta^d."""
        parts: list[list[JetPoly]] = [[] for _ in range(len(self.coeffs) + 1)]
        for d, c in enumerate(self.coeffs):
            if d and c:
                parts[d + 1].append(c * d)
                parts[d].append(c * -d)
        return PowerTheta([JetPoly.sum(ps) for ps in parts])


class PowerRoute:
    """P~, P_{a,b}, L_i and RHS_g of the loop equation, in powers of Theta.

    Only row 0 and the f-jets are read from `table` (a PTensorTable)."""

    def __init__(self, table):
        self.table = table
        self._ptilde: dict[tuple[int, int], PowerTheta] = {}
        self._dressed: dict[tuple[int, int], PowerTheta] = {}
        self._dtheta = [PowerTheta.theta()]
        lin = JetPoly.monomial(Q(1, 24), (1, 0), {}) + JetPoly.const(Q(-1, 16))
        # T = Theta^2/16 - (1/16 - s1/24) Theta
        self._dT = [PowerTheta([JetPoly.zero(), lin, JetPoly.const(Q(1, 16))])]

    def ptilde(self, i: int, j: int) -> PowerTheta:
        """P~_{i,j} = xi_euler(P~_{i-1,j}) - P~_{i-1,j+1}, from row 0."""
        got = self._ptilde.get((i, j))
        if got is None:
            if i == 0:
                got = PowerTheta.of(self.table.ptilde(0, j))
            else:
                got = self.ptilde(i - 1, j).xi_euler() - self.ptilde(i - 1, j + 1)
            self._ptilde[i, j] = got
        return got

    def dressed(self, a: int, b: int) -> PowerTheta:
        """P_{a,b} = sum_{k,l} f_{a,k} f_{b,l} P~_{k,l}, formed term by term."""
        got = self._dressed.get((a, b))
        if got is None:
            f = self.table.f
            got = PowerTheta.sum([self.ptilde(k, l) * (f(a, k) * f(b, l))
                                  for k in range(a + 1) for l in range(b + 1)
                                  if f(a, k) and f(b, l)])
            self._dressed[a, b] = got
        return got

    def dtheta(self, i: int) -> PowerTheta:
        while len(self._dtheta) <= i:
            self._dtheta.append(self._dtheta[-1].derive())
        return self._dtheta[i]

    def derived_base(self, m: int) -> PowerTheta:
        while len(self._dT) <= m:
            self._dT.append(self._dT[-1].derive())
        return self._dT[m]

    def lhs(self, i: int) -> PowerTheta:
        """L_i = derive^i(Theta) + sum_{j=1}^i C(i, j) P_{j-1, i-j+1}."""
        return PowerTheta.sum([self.dtheta(i)] + [
            self.dressed(j - 1, i - j + 1) * comb(i, j) for j in range(1, i + 1)])

    def rhs(self, g: int, lower) -> PowerTheta:
        """RHS_g; for g >= 2 over dressed P, summed over i <= j by the symmetry of P."""
        if g == 1:
            return self.derived_base(0)
        grads = [None] + [fe.gradient for fe in lower[: g - 1]]
        top_prev = 3 * (g - 1) - 2
        parts = [self.derived_base(i + 2) * grads[g - 1][i]
                 for i in range(top_prev + 1) if grads[g - 1][i]]
        for i in range(top_prev + 1):
            for j in range(i, top_prev + 1):
                w = JetPoly.sum([grads[g - 1][i].partial(j)] + [
                    grads[k][i] * grads[g - k][j] for k in range(1, g)
                    if i < len(grads[k]) and j < len(grads[g - k])])
                if w:
                    parts.append(self.dressed(i + 1, j + 1) * (w * Q(1, 2) if i == j else w))
        return PowerTheta.sum(parts)
