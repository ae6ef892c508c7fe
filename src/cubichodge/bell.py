"""Partial Bell polynomials and the jet polynomials f_{i,j}.

The partial Bell polynomials B_{n,k}(z1, ..., z_{n-k+1}) are built as
JetPolys by the recurrence

    B_{n,k} = sum_i C(n-1, i-1) z_i B_{n-i,k-1}.

The jet polynomials f_{i,j} are produced by the first-order recursion

    f_{i,0} = delta_{i,0},   f_{i+1,j+1} = derive(f_{i,j+1}) + z1 * f_{i,j},

each entry one JetPoly.dot of the pair (f_{i,j}, z1) with derive(f_{i,j+1})
run into the same accumulator.  They identify with B_{i,j}(z1, ...,
z_{i-j+1}); the two recursions share no code, and the identification is
checked once per table against the Bell rows.
"""
from __future__ import annotations

from functools import cache
from math import comb

from .jets import JetPoly

# FJetTable checks its rows f_{i,j} for i <= SELFCHECK_TO against the Bell table
SELFCHECK_TO = 8

_Z1 = JetPoly.z(1)


class BellTable:
    """B_{n,k}(z1, ..., z_{n-k+1}) for 0 <= k <= n <= n_max, served by bell(n, k)."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        b = self._table = {(0, 0): JetPoly.one()}
        for n in range(1, n_max + 1):
            b[n, 0] = JetPoly.zero()
            for k in range(1, n + 1):
                b[n, k] = JetPoly.sum([b[n - i, k - 1].mul_z(i) * comb(n - 1, i - 1)
                                       for i in range(1, n - k + 2)])

    def bell(self, n: int, k: int) -> JetPoly:
        if not 0 <= k <= n <= self.n_max:
            raise ValueError(f"Bell indices out of range: ({n}, {k})")
        return self._table[n, k]


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
            # f_{i+1,j+1} = derive(f_{i,j+1}) + z1 f_{i,j}, one dot each
            self._rows.append([self._zero] + [
                JetPoly.dot([(prev[j], _Z1)], prev[j + 1] if j < i else None)
                for j in range(i + 1)])
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
    """The Bell rows every FJetTable checks against, built once."""
    table = BellTable(SELFCHECK_TO)
    return [[table.bell(i, j) for j in range(i + 1)] for i in range(SELFCHECK_TO + 1)]
