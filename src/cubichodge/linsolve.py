"""Back substitution for the Theta-row systems produced by the loop equation.

Rows are indexed by the Theta power a = 1..n, unknowns by the jet index
i = 0..n-1.  Entry (a, i) vanishes for a > i + 1, and each diagonal entry
(i + 1, i) is a single nonzero monomial (the top Theta coefficient of L_i),
so the system solves top row down with exact monomial divisions.  A
non-monomial diagonal is rejected when the system is built; a remainder in
a division raises ExactDivisionError.  The caller checks the full residual
over every Theta row.
"""
from __future__ import annotations

from .jets import ExactDivisionError, JetPoly


class SolveError(ArithmeticError):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (Theta row {row})")
        self.row = row


class TriangularSystem:
    def __init__(self, size: int, rows, rhs):
        """rows[a-1][i] is the entry at Theta row a, unknown i; rhs[a-1] likewise."""
        if len(rows) != size or len(rhs) != size:
            raise ValueError("system shape mismatch")
        self.size = size
        self.rows = [list(r) for r in rows]
        self.rhs = list(rhs)
        for a in range(1, size + 1):
            if len(self.rows[a - 1]) != size:
                raise ValueError("system shape mismatch")
            for i in range(size):
                if a > i + 1 and self.rows[a - 1][i]:
                    raise SolveError("entry below the triangular profile is nonzero", a)
            diag = self.rows[a - 1][a - 1]
            if not diag:
                raise SolveError("zero diagonal entry", a)
            if len(diag.terms) != 1:
                raise SolveError("diagonal entry is not a single monomial", a)

    def solve(self):
        """Back substitution from the highest Theta row; returns the unknowns."""
        n = self.size
        xs: list[JetPoly | None] = [None] * n
        for a in range(n, 0, -1):
            row = self.rows[a - 1]
            rhs = self.rhs[a - 1]
            resid = rhs - JetPoly.dot(rhs.cutoff, [(row[i], xs[i]) for i in range(a, n) if row[i]])
            try:
                xs[a - 1] = resid.exact_div(row[a - 1])
            except ExactDivisionError as exc:
                raise ExactDivisionError(f"non-exact division at Theta row {a}: {exc}") from exc
        return xs
