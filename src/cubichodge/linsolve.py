"""Back substitution for the Theta-row systems produced by the loop equation.

The columns are the L_i themselves, i = 0..n-1; rows are indexed by the
Stirling basis element pi_m, m = 1..n (see theta.py), so entry (m, i) is
columns[i].coeff(m) and no matrix is built.  L_i has Theta degree i + 1 and a
single-monomial top coefficient, so entry (m, i) vanishes for m > i + 1 and
the system solves top row down, one monomial diagonal per row.  Those two
facts are checked once per column when the system is built.  A diagonal
c z1^k is a unit of the Laurent jet ring, as every diagonal of the loop
equation is: the row's residual is multiplied by its inverse c^-1 z1^-k, so
that unknown carries the sum of the two bounds, not an exact one.  Any other
monomial diagonal goes through JetPoly.exact_div, where a remainder raises
ExactDivisionError.  The caller checks the full residual over every row.
"""
from __future__ import annotations

from .jets import ExactDivisionError, JetPoly


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
        for i, col in enumerate(self.columns):
            if col.degree != i + 1:
                raise SolveError(f"column {i} has Theta degree {col.degree}, not {i + 1}", i + 1)
            if len(col.coeff(i + 1).terms) != 1:
                raise SolveError("diagonal entry is not a single monomial", i + 1)

    def solve(self):
        """Back substitution from the highest row; returns the unknowns."""
        cols = self.columns
        n = len(cols)
        xs: list[JetPoly | None] = [None] * n
        for m in range(n, 0, -1):
            row = [(cols[i].coeff(m), xs[i]) for i in range(m, n)]
            resid = self.rhs.coeff(m) - JetPoly.dot(row)
            diag = cols[m - 1].coeff(m)
            inverse = diag.unit_inverse()
            if inverse is not None:
                xs[m - 1] = resid * inverse
                continue
            try:
                xs[m - 1] = resid.exact_div(diag)
            except ExactDivisionError as exc:
                raise ExactDivisionError(f"non-exact division at row {m}: {exc}") from exc
        return xs
