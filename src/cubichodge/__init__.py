"""Exact computation of special cubic Hodge free energies.

The package solves the Dubrovin-Zhang loop equation genus by genus in
exact rational arithmetic, verifies the rational-case Virasoro structure,
and extracts gap polynomials, Faber-type leading terms and tables of cubic
Hodge intersection numbers.

Importing the package loads the solver core only (jets, sparse, ratio,
phiseries, theta, ptensors, linsolve, loop, textform).  The exports of
`outputs`, `virasoro` and `commutators` load their module on first access
(a module __getattr__, PEP 562), so `from cubichodge import r_poly` works
as before while `compute` never compiles them; see cli.py for which
modules each command loads.
"""
import importlib

from .jets import JetPoly
from .linsolve import SolveError, TriangularSystem
from .loop import FreeEnergy, LoopEquationError, LoopSolver
from .phiseries import TSeries, bernoulli, log_phi, power_sum, q_number
from .ptensors import BellTable, PTensorTable
from .ratio import Q
from .theta import ThetaPoly

__version__ = "0.1.0"

_DEFERRED = {name: module for module, names in (
    ("commutators", ("commutator_grid", "monomial_basis")),
    ("outputs", ("dimension_check", "faber_leading", "first_flow_check", "h1_gap_check",
                 "hodge_expand", "intersection_table", "r_poly", "v_series")),
    ("virasoro", ("BtildeTable", "RationalParams", "v_value")),
) for name in names}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
