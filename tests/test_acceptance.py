"""Acceptance suite: one check per shipping criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
as they go).  Time budgets are wall-clock on a fresh solver."""
import time

from cubichodge.cli import main
from cubichodge.commutators import commutator_grid, monomial_basis
from cubichodge.oracles import (btilde11_closed_form_check, cy_power_sum_check,
                                q_geometric_check, row0_shift_oracle, specialization_bridge)
from cubichodge.outputs import (dimension_check, faber_leading, first_flow_check,
                                h1_gap_check, hodge_expand, r_poly)
from cubichodge.ptensors import BellTable, PTensorTable
from cubichodge.jets import JetPoly
from cubichodge.ratio import Q
from cubichodge.virasoro import BtildeTable, RationalParams

from golden import (FABER2_TEXT, FABER3_TEXT, H1_TEXT, H2_TEXT, H3_TEXT, R2_TEXT, R3_TEXT,
                    parse_sigma, sigma_part)

PAIRS = [(1, 2), (2, 3), (3, 4)]


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status}: {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def timed_cli(capsys, *argv):
    t0 = time.monotonic()
    code = main(list(argv))
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    return code, out, elapsed


def test_c01_golden_h1(capsys):
    code, out, elapsed = timed_cli(capsys, "compute", "--genus", "1")
    report(1, "genus-1 free energy, exact and under 1 s",
           code == 0 and out.strip() == H1_TEXT and elapsed < 1.0,
           f"code={code}, t={elapsed:.2f}s")


def test_c02_golden_h2(capsys):
    code, out, elapsed = timed_cli(capsys, "compute", "--genus", "2")
    report(2, "genus-2 free energy term by term, under 5 s",
           code == 0 and out.strip() == H2_TEXT and elapsed < 5.0,
           f"code={code}, t={elapsed:.2f}s")


def test_c03_golden_h3(capsys):
    from cubichodge.textform import jet_text, parse_jet

    code, out, elapsed = timed_cli(capsys, "compute", "--genus", "3")
    frozen = parse_jet(H3_TEXT)
    ok = (code == 0 and elapsed < 60.0
          and parse_jet(out.strip()) == frozen
          and out.strip() == jet_text(frozen)
          and len(frozen.terms) == 36)
    report(3, "genus-3 free energy, all 36 monomials, under 60 s",
           ok, f"code={code}, t={elapsed:.2f}s")


def test_c04_gap_polynomials(capsys):
    code2, out2, _ = timed_cli(capsys, "rg", "--genus", "2")
    code3, out3, _ = timed_cli(capsys, "rg", "--genus", "3")
    ok = (code2 == 0 and out2.strip() == f"R_2 = {R2_TEXT}"
          and code3 == 0 and out3.strip() == f"R_3 = {R3_TEXT}")
    report(4, "gap polynomials R_2, R_3 match the frozen references", ok)


def test_c05_faber_leading(solver_g4, energies_g5):
    _, energies, times = solver_g4
    ok = True
    detail = ""
    for g in (2, 3):
        frozen = parse_sigma(FABER2_TEXT if g == 2 else FABER3_TEXT)
        if faber_leading(g) != frozen:
            ok, detail = False, f"closed form vs printed at g={g}"
    for g, fe in ((2, energies[1]), (3, energies[2]), (4, energies[3]), (5, energies_g5[4])):
        if sigma_part(r_poly(fe), 3 * g - 3) != faber_leading(g):
            ok, detail = False, f"top of R_{g}"
    total = sum(times.values())
    if total >= 600:
        ok, detail = False, f"genus <= 4 took {total:.0f}s"
    report(5, f"Faber leading terms g=2..5; genus<=4 solved in {total:.1f}s", ok, detail)


def test_c06_loop_residual(solver_g4):
    solver, energies, _ = solver_g4
    bad = [g for g in range(1, 5) if solver.residual(g, energies)]
    report(6, "loop-equation residual vanishes identically for g <= 4",
           not bad, f"nonzero at {bad}")


def test_c07_gradient_and_euler(monkeypatch):
    from cubichodge.jets import JetPoly
    from cubichodge.loop import LoopSolver

    # the gradient the loop equation solves for, as reconstruct receives it;
    # FreeEnergy.gradient is derived from the body and is closed for any body
    solver = LoopSolver(4)
    solved = {}
    reconstruct = solver.reconstruct

    def capture(g, gradient):
        solved[g] = gradient
        return reconstruct(g, gradient)

    monkeypatch.setattr(solver, "reconstruct", capture)
    energies = solver.compute(4)
    ok, detail = sorted(solved) == [1, 2, 3, 4], f"solved genera {sorted(solved)}"
    for fe in energies:
        grad = solved.get(fe.genus, [])
        for i in range(len(grad)):
            for j in range(i + 1, len(grad)):
                if grad[i].partial(j) != grad[j].partial(i):
                    ok, detail = False, f"cross-partials g={fe.genus} ({i},{j})"
        if len(grad) != len(fe.gradient):
            ok, detail = False, f"gradient length g={fe.genus}"
        for i, (mine, derived) in enumerate(zip(grad, fe.gradient)):
            if mine != derived:
                ok, detail = False, f"solved vs derived gradient g={fe.genus} at z{i}"
        if fe.genus >= 2:
            if fe.gradient[0]:
                ok, detail = False, f"dH_{fe.genus}/dz0 != 0"
            acc = JetPoly.zero()
            for j in range(1, 3 * fe.genus - 1):
                acc = acc + fe.body.partial(j).mul_z(j) * Q(j)
            if acc != fe.body * Q(2 * fe.genus - 2):
                ok, detail = False, f"Euler identity g={fe.genus}"
    report(7, "gradient closure, Euler reconstruction, z0-absence for g <= 4", ok, detail)


def test_c08_dual_grading(solver_g4):
    _, energies, _ = solver_g4
    ok, detail = True, ""
    for fe in energies[1:]:
        g = fe.genus
        if fe.body.weighted_degrees(lambda k: k) != {2 * g - 2}:
            ok, detail = False, f"jet grading g={g}"
        if fe.body.weighted_degrees(lambda k: k - 1, s1_weight=1, s3_weight=3) != {3 * g - 3}:
            ok, detail = False, f"dual grading g={g}"
    report(8, "both homogeneities hold for 2 <= g <= 4", ok, detail)


def test_c09_virasoro_commutators():
    t0 = time.monotonic()
    ok, detail = True, ""
    for pair in PAIRS:
        params = RationalParams(*pair)
        bound = 3 * params.h + 2
        basis = monomial_basis(params, bound, 3)
        grid = commutator_grid(params, basis, 3, bound + 6 * params.h)
        assert len(grid) == 16
        bad = [(cell, term) for cell, term in grid.items() if term is not None]
        if bad:
            (m, n), term = bad[0]
            ok, detail = False, f"K={pair}, (m,n)=({m},{n}), {term}"
            break
    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        ok, detail = False, f"took {elapsed:.0f}s"
    report(9, f"[L_m, L_n] = (m-n) L_(m+n) on a degree-3 basis in {elapsed:.1f}s", ok, detail)


def test_c10_residue_bridge():
    ok, detail = True, ""
    table = PTensorTable(4)
    for pair in PAIRS:
        params = RationalParams(*pair)
        btilde = BtildeTable(params, 10)
        for n in range(13):
            if btilde.a_kn(0, n) != params.kconst**n:
                ok, detail = False, f"A(0,{n}) for K={pair}"
        good, d = specialization_bridge(btilde, table)
        if not good:
            ok, detail = False, str(d)
    report(10, "A_0n = K^n (n <= 12) and the B~ vs P~ bridge (i+j <= 4)", ok, detail)


def test_c11_btilde11_closed_form():
    ok, detail = True, ""
    for pair in PAIRS:
        good, d = btilde11_closed_form_check(BtildeTable(RationalParams(*pair), 10))
        if not good:
            ok, detail = False, str(d)
    report(11, "B~_1,1 matches its closed Theta-polynomial form", ok, detail)


def test_c12_xi_oracle():
    ok, detail = row0_shift_oracle()
    report(12, "P~_0,n (n <= 8) agrees with the shift expansion to xi^8", ok, detail or "")


def test_c13_q_and_bell():
    ok, detail = q_geometric_check()
    if ok:
        table = BellTable(8)
        fj = PTensorTable(8)
        for i in range(9):
            for j in range(i + 1):
                if fj.f(i, j) != table.bell(i, j):
                    ok, detail = False, f"f({i},{j})"
    report(13, "Q numbers vs geometric series; f_ij vs Bell closed forms (i <= 8)",
           ok, detail or "")


def test_c14_hodge_tables(h123):
    ok, detail = True, ""
    g1 = hodge_expand(h123[0], 3, 4)
    if g1.coefficient((1, 0, 0, 0)) != JetPoly.monomial(Q(1, 24), (1, 0), {}):
        ok, detail = False, "t0 coefficient at genus 1"
    if g1.coefficient((0, 1, 0, 0)) != JetPoly.const(Q(1, 24)):
        ok, detail = False, "t1 coefficient at genus 1"
    g2 = hodge_expand(h123[1], 3, 4)
    expect = JetPoly.monomial(Q(1, 17280), (3, 0), {}) + JetPoly.monomial(Q(-1, 34560), (0, 1), {})
    if g2.constant_term() != expect:
        ok, detail = False, "constant term at genus 2"
    for g in (1, 2, 3):
        good, violation = dimension_check(g, hodge_expand(h123[g - 1], 3, 4))
        if not good:
            ok, detail = False, f"dimension constraint g={g}: {violation}"
    report(14, "Hodge tables: g=1 linear terms, g=2 constant, dimension check g <= 3",
           ok, detail)


def test_c15_first_flow(h123):
    report(15, "first Hodge flow holds at order eps^2 to t-degree 3",
           first_flow_check(h123[0]))


def test_c16_h1_gap(h123):
    report(16, "genus-1 gap identity: log-x coefficient is (s1 - 1)/24",
           h1_gap_check(h123[0]))


def test_c17_power_sum_oracle():
    ok, detail = cy_power_sum_check()
    report(17, "power sums match exact evaluation at CY triples (k <= 11)", ok, detail or "")
