"""Exact computation of special cubic Hodge free energies.

The package solves the Dubrovin-Zhang loop equation genus by genus in
exact rational arithmetic, verifies the rational-case Virasoro structure,
and extracts gap polynomials, Faber-type leading terms and tables of cubic
Hodge intersection numbers.
"""
from .commutators import commutator_grid, monomial_basis
from .jets import JetPoly
from .linsolve import SolveError, TriangularSystem
from .loop import FreeEnergy, LoopEquationError, LoopSolver
from .outputs import (dimension_check, faber_leading, first_flow_check, h1_gap_check,
                      hodge_expand, intersection_table, r_poly, v_series)
from .phiseries import TSeries, bernoulli, log_phi, power_sum, q_number
from .ptensors import BellTable, PTensorTable
from .ratio import Q
from .theta import ThetaPoly
from .virasoro import BtildeTable, RationalParams, v_value

__version__ = "0.1.0"
