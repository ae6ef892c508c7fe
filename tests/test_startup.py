"""Start-up: each command imports only the modules it runs.

The package loads its solver core eagerly and the rest on first use: the
exports of `outputs`, `virasoro` and `commutators` through the package's
module __getattr__, and the functions cli.py calls from `outputs`,
`commutators` and `oracles` through forwarders that stay cli globals (the
benchmark's tracer wraps them by name).  The import checks run in a fresh
interpreter, since this one has every module loaded already.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubichodge
import cubichodge.cli as cli
from cubichodge import commutators, oracles, outputs
from cubichodge.jets import JetPoly
from cubichodge.loop import FreeEnergy
from cubichodge.ptensors import PTensorTable
from cubichodge.virasoro import BtildeTable, RationalParams

ROOT = Path(__file__).resolve().parents[1]
RATIONAL = {"cubichodge.virasoro", "cubichodge.commutators", "cubichodge.oracles"}
DEFERRED = RATIONAL | {"cubichodge.outputs"}

# runs main(argv) in a fresh interpreter; prints its exit code, stdout and modules
CHILD = """
import contextlib, io, json, sys
import cubichodge.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cubichodge.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def run_fresh(*argv):
    env = {k: v for k, v in os.environ.items() if k != "CUBICHODGE_CACHE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    return report["code"], report["out"], set(report["modules"])


def test_compute_loads_the_solver_core_alone():
    code, out, modules = run_fresh("compute", "--genus", "2")
    assert code == 0 and out.startswith("(1/1152)*z1^-2*z4")
    assert not modules & DEFERRED
    # dataclasses pulls in inspect, ast, dis and tokenize; hashlib serves the cache only
    assert not modules & {"dataclasses", "hashlib"}


@pytest.mark.parametrize("argv", [("rg", "--genus", "2"), ("hodge", "--genus", "2")],
                         ids=lambda argv: argv[0])
def test_rg_and_hodge_load_outputs_but_no_rational_case_module(argv):
    code, _, modules = run_fresh(*argv)
    assert code == 0
    assert "cubichodge.outputs" in modules and not modules & RATIONAL


def test_virasoro_loads_its_modules_and_passes():
    code, out, modules = run_fresh("virasoro", "--k1", "1", "--k2", "2")
    assert code == 0 and out.endswith("all commutators pass\n")
    assert {"cubichodge.virasoro", "cubichodge.commutators"} <= modules
    assert not modules & {"cubichodge.outputs", "cubichodge.oracles"}


def test_verify_bridge_passes():
    code, out, modules = run_fresh("verify", "--suite", "bridge")
    assert (code, out) == (0, "PASS bridge\n")
    assert "cubichodge.oracles" in modules


# -- the package's exports --------------------------------------------------------

EXPORTS = {
    "commutators": ("commutator_grid", "monomial_basis"),
    "jets": ("JetPoly",),
    "linsolve": ("SolveError", "TriangularSystem"),
    "loop": ("FreeEnergy", "LoopEquationError", "LoopSolver"),
    "outputs": ("dimension_check", "faber_leading", "first_flow_check", "h1_gap_check",
                "hodge_expand", "intersection_table", "r_poly", "v_series"),
    "phiseries": ("TSeries", "bernoulli", "log_phi", "power_sum", "q_number"),
    "ptensors": ("BellTable", "PTensorTable"),
    "ratio": ("Q",),
    "theta": ("ThetaPoly",),
    "virasoro": ("BtildeTable", "RationalParams", "v_value"),
}


def test_exports_count():
    assert sum(map(len, EXPORTS.values())) == 28


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names],
                         ids=lambda x: x)
def test_export_is_its_modules_own_object(module, name):
    namespace = {}
    exec(f"from cubichodge import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"cubichodge.{module}"), name)


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cubichodge.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from cubichodge import no_such_name", {})


# -- cli's forwarders ---------------------------------------------------------------


def forward_cases(h123):
    """name -> (its module, its arguments) for every cli forwarder."""
    h1, h2, h3 = h123
    params = RationalParams(1, 2)
    bt = BtildeTable(params, 10)
    basis = commutators.monomial_basis(params, 4, 2)
    return {
        "commutator_grid": (commutators, (params, basis, 1, 4 + 2 * params.h)),
        "monomial_basis": (commutators, (params, 4, 2)),
        "btilde11_closed_form_check": (oracles, (bt,)),
        "btilde11_integral_check": (oracles, (bt,)),
        "c_pair_float_check": (oracles, (bt,)),
        "chain_rule_check": (oracles, ()),
        "cy_power_sum_check": (oracles, ()),
        "q_geometric_check": (oracles, ()),
        "row0_shift_oracle": (oracles, ()),
        "specialization_bridge": (oracles, (bt, PTensorTable(4))),
        "v1_asymptotic_check": (oracles, ([params],)),
        "faber_leading": (outputs, (3,)),
        "h1_gap_check": (outputs, (h1,)),
        "intersection_table": (outputs, (h3, 3, 4)),
        "r_poly": (outputs, (h2,)),
    }


def test_forwarders_return_what_their_functions_return(h123):
    cases = forward_cases(h123)
    forwarders = {name for name, value in vars(cli).items()
                  if getattr(value, "__code__", None) is cli.r_poly.__code__}
    assert forwarders == set(cases)
    for name, (module, args) in cases.items():
        assert getattr(cli, name).__name__ == name
        assert getattr(cli, name)(*args) == getattr(module, name)(*args), name


def test_forwarders_pass_exceptions_through(h123):
    h3 = h123[2]
    broken = FreeEnergy(3, h3.body + JetPoly.z(0) * JetPoly.z(1) ** 3)  # a z0 term
    with pytest.raises(AssertionError) as direct:
        outputs.intersection_table(broken, 3, 4)
    with pytest.raises(AssertionError) as forwarded:
        cli.intersection_table(broken, 3, 4)
    assert str(forwarded.value) == str(direct.value)
    assert "has a z0 term" in str(forwarded.value)
    with pytest.raises(TypeError):
        cli.r_poly()
