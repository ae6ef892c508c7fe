"""Exact computation of special cubic Hodge free energies.

The package solves the Dubrovin-Zhang loop equation genus by genus in
exact rational arithmetic, verifies the rational-case Virasoro structure,
and extracts gap polynomials, Faber-type leading terms and tables of cubic
Hodge intersection numbers.
"""
from .bell import BellTable, FJetTable, bell_complete, bell_partial
from .commutators import commutator_grid
from .jets import CutoffError, ExactDivisionError, JetPoly
from .linsolve import SolveError, TriangularSystem
from .loop import FreeEnergy, LoopEquationError, LoopSolver
from .outputs import (TSeries, dimension_check, faber_leading, first_flow_check,
                      h1_gap_check, hodge_expand, intersection_table, r_poly,
                      riemann_check, v_series)
from .phiseries import ZInvSeries, bernoulli, log_phi, phi_d_inv, power_sum, q_number
from .ptensors import PTensorTable
from .ratio import Q
from .sigma import SigmaPoly
from .theta import ThetaPoly
from .virasoro import (BtildeTable, FockPoly, RationalParams, a_kn, btilde_row0,
                       c_pair, c_ratio, commutator_check, monomial_basis,
                       v_rational, virasoro_apply)

__version__ = "0.1.0"


def compute_free_energies(genus: int, cache_dir: str | None = None):
    """Convenience wrapper: H_1..H_genus with a fresh solver."""
    return LoopSolver(genus).compute(genus, cache_dir=cache_dir)
