"""Partial Bell polynomials and the jet polynomials f_{i,j}.

The abstract partial Bell polynomials B_{n,k}(X_1, ..., X_{n-k+1}) are
cached as sparse exponent maps over the slot variables.  The jet
polynomials f_{i,j} are produced by the first-order recursion

    f_{i,0} = delta_{i,0},   f_{i+1,j+1} = derive(f_{i,j+1}) + z1 * f_{i,j}

and identify with B_{i,j}(z1, ..., z_{i-j+1}); the identification is
checked once per table against the cached Bell polynomials.
"""
from __future__ import annotations

from functools import cache
from math import comb

from .jets import JetPoly
from .ratio import Q, QONE
from .sparse import mul_into, nonzero, pack, unit, unpack

# FJetTable checks its rows f_{i,j} for i <= SELFCHECK_TO against the Bell table
SELFCHECK_TO = 8


class BellTable:
    """Cache of partial Bell polynomials up to n_max.

    The table stores each B_{n,k} on packed keys, slot i holding the
    exponent of X_{i+1}; bell_partial(n, k) returns it as a dict mapping
    slot-exponent tuples of length n to rational coefficients.
    """

    def __init__(self, n_max: int):
        pack((n_max,))  # no exponent exceeds n_max: OverflowError unless it fits a slot
        self.n_max = n_max
        self._table = {(0, 0): {0: QONE}}
        for n in range(1, n_max + 1):
            self._table[(n, 0)] = {}
            for k in range(1, n + 1):
                self._table[(n, k)] = self._build(n, k)

    def _build(self, n: int, k: int) -> dict:
        # B_{n,k} = sum_i C(n-1, i-1) X_i B_{n-i, k-1}
        out = {}
        for i in range(1, n - k + 2):
            mul_into(out, self._table[(n - i, k - 1)], {unit(i - 1): Q(comb(n - 1, i - 1))})
        return nonzero(out)

    def bell_partial(self, n: int, k: int) -> dict:
        if not (0 <= k <= n <= self.n_max):
            raise ValueError(f"bell_partial indices out of range: ({n}, {k})")
        return {unpack(mono, n): c for mono, c in self._table[(n, k)].items()}


class FJetTable:
    """f_{i,j} jet polynomials, with the Bell cross-check; f_{i,j} carries
    the jets z1..z_{i-j+1}."""

    def __init__(self):
        self._zero = JetPoly.zero()
        self._rows = [[JetPoly.one()]]
        self._verified_to = 0

    def f(self, i: int, j: int) -> JetPoly:
        if j > i or j < 0 or i < 0:
            return self._zero
        self._extend(i)
        return self._rows[i][j]

    def _extend(self, imax: int):
        grew = len(self._rows) <= imax
        while len(self._rows) <= imax:
            i = len(self._rows) - 1
            prev = self._rows[i]
            row = [self._zero]
            for j in range(i + 1):
                up = prev[j + 1].derive() if j + 1 <= i else self._zero
                row.append(up + prev[j].mul_z(1))
            self._rows.append(row)
        if grew:
            top = min(len(self._rows) - 1, SELFCHECK_TO)
            if top > self._verified_to:
                self._verify_against_bell(self._verified_to + 1, top)
                self._verified_to = top

    def _verify_against_bell(self, lo: int, hi: int):
        bell_rows = _selfcheck_rows()
        for i in range(lo, hi + 1):
            if self._rows[i] != bell_rows[i]:
                raise AssertionError(f"row f_({i},j) disagrees with its Bell closed form")


@cache
def _selfcheck_rows() -> list:
    """The Bell rows every FJetTable checks against, as JetPolys, built once."""
    table = BellTable(SELFCHECK_TO)
    return [[bell_jet(table, i, j) for j in range(i + 1)] for i in range(SELFCHECK_TO + 1)]


def bell_jet(table: BellTable, n: int, k: int) -> JetPoly:
    """B_{n,k}(z1, ..., z_{n-k+1}) as a JetPoly."""
    # slot m of a Bell monomial is the exponent of X_(m+1) = z_(m+1)
    return JetPoly({(0, 0, 0) + mono: c for mono, c in table.bell_partial(n, k).items()})
