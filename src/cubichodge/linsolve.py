"""Back substitution for the Theta-row systems produced by the loop equation.

Rows are indexed by the Stirling basis element pi_m, m = 1..n (see
theta.py), unknowns by the jet index i = 0..n-1.  Entry (m, i) vanishes for
m > i + 1, since L_i has Theta degree i + 1, and each diagonal entry
(i + 1, i) is a single nonzero monomial (the top coefficient of L_i), so the
system solves top row down with exact monomial divisions.  A non-monomial
diagonal is rejected when the system is built; a remainder in a division
raises ExactDivisionError.  The caller checks the full residual over every
row.
"""
from __future__ import annotations

from .jets import ExactDivisionError, JetPoly


class SolveError(ArithmeticError):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class TriangularSystem:
    def __init__(self, size: int, rows, rhs):
        """rows[m-1][i] is the entry at row m, unknown i; rhs[m-1] likewise."""
        if len(rows) != size or len(rhs) != size:
            raise ValueError("system shape mismatch")
        self.size = size
        self.rows = [list(r) for r in rows]
        self.rhs = list(rhs)
        for m in range(1, size + 1):
            if len(self.rows[m - 1]) != size:
                raise ValueError("system shape mismatch")
            for i in range(size):
                if m > i + 1 and self.rows[m - 1][i]:
                    raise SolveError("entry below the triangular profile is nonzero", m)
            diag = self.rows[m - 1][m - 1]
            if not diag:
                raise SolveError("zero diagonal entry", m)
            if len(diag.terms) != 1:
                raise SolveError("diagonal entry is not a single monomial", m)

    def solve(self):
        """Back substitution from the highest row; returns the unknowns."""
        n = self.size
        xs: list[JetPoly | None] = [None] * n
        for m in range(n, 0, -1):
            row = self.rows[m - 1]
            rhs = self.rhs[m - 1]
            resid = rhs - JetPoly.dot([(row[i], xs[i]) for i in range(m, n) if row[i]])
            try:
                xs[m - 1] = resid.exact_div(row[m - 1])
            except ExactDivisionError as exc:
                raise ExactDivisionError(f"non-exact division at row {m}: {exc}") from exc
        return xs
