"""Back substitution for the Theta-row systems produced by the loop equation.

The columns are the L_i themselves, i = 0..n-1; rows are indexed by the
Stirling basis element pi_m, m = 1..n (see theta.py), so entry (m, i) is
columns[i].coeff(m) and no matrix is built.  L_i has Theta degree i + 1 and a
top coefficient c z1^k, so entry (m, i) vanishes for m > i + 1 and the
system solves top row down.  Each diagonal c z1^k is a unit of the Laurent
jet ring; the two facts are checked, and each diagonal inverted, once per
column when the system is built.  A row's residual is multiplied by the
inverse c^-1 z1^-k, one JetPoly.dot like the row's own products: neither
checks a key, and the loop equation's gradings keep every exponent inside
its slot (loop.py).  Since each inverse times its diagonal is 1, rows 1..n of
sum_i columns[i] x_i - rhs vanish identically; the caller checks only that
rhs has no row above n, and forms the full residual in a pass of its own.
"""
from __future__ import annotations

from .jets import JetPoly


class SolveError(ArithmeticError):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class TriangularSystem:
    def __init__(self, columns, rhs):
        """columns[i] is the Theta polynomial of unknown i; entry (m, i) is its
        pi_m coefficient, and rhs.coeff(m) is row m's right-hand side."""
        self.columns = list(columns)
        self.rhs = rhs
        self.inverses = []
        for i, col in enumerate(self.columns):
            if col.degree != i + 1:
                raise SolveError(f"column {i} has Theta degree {col.degree}, not {i + 1}", i + 1)
            inverse = col.coeff(i + 1).unit_inverse()
            if inverse is None:
                raise SolveError("diagonal entry is not a single monomial c z1^k", i + 1)
            self.inverses.append(inverse)

    def solve(self):
        """Back substitution from the highest row; returns the unknowns."""
        cols = self.columns
        n = len(cols)
        xs: list[JetPoly | None] = [None] * n
        for m in range(n, 0, -1):
            row = [(cols[i].coeff(m), xs[i]) for i in range(m, n)]
            resid = self.rhs.coeff(m) - JetPoly.dot(row)
            xs[m - 1] = JetPoly.dot(((resid, self.inverses[m - 1]),))
        return xs
