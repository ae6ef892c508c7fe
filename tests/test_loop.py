import hashlib
import json
from math import comb
from types import SimpleNamespace

import pytest

import cubichodge.loop as loop
from cubichodge import linsolve, ptensors, textform
from cubichodge.jets import JetPoly
from cubichodge.linsolve import SolveError
from cubichodge.loop import (CACHE_VERSION, SOLVER_VERSION, FreeEnergy, LoopEquationError,
                             LoopSolver, cache_path, load_cached, store_cached)
from cubichodge.ratio import Q
from cubichodge.textform import json_text, parse_jet
from cubichodge.theta import ThetaPoly

from golden import H2_TEXT, H3_TEXT


@pytest.fixture(scope="module")
def solver(h123):
    s = LoopSolver(3)
    s._energies = h123  # reuse the session results where convenient
    return s


class TestLhs:
    def test_l0_is_theta(self, solver):
        assert solver.lhs_coefficient(0) == ThetaPoly.theta()

    def test_l1(self, solver):
        z1 = JetPoly.z(1)
        l1 = solver.lhs_coefficient(1)
        assert l1.powers() == [JetPoly.zero(), z1 * Q(-3, 2), z1 * Q(3, 2)]
        assert l1.degree == 2

    @pytest.mark.parametrize("i", range(6))
    def test_degree_is_i_plus_one(self, solver, i):
        li = solver.lhs_coefficient(i)
        assert li.degree == i + 1
        top = li.coeff(i + 1)
        # a single sigma-free monomial in z1^i
        assert len(top.terms) == 1
        key, val = top.items()[0]
        assert key[0] == key[1] == 0 and key[3] == i
        assert all(e == 0 for t, e in enumerate(key[2:]) if t != 1)


def contracted_lhs(table, i: int) -> ThetaPoly:
    """L_i = derive^i(Theta) + sum_{j=1}^i C(i, j) P_{j-1, i-j+1}, its dressed
    sum contracted against P~ whole: the reference for L_i's recursion."""
    f = table.f
    theta_part = ThetaPoly([-f(i, j) if j % 2 else f(i, j) for j in range(i + 1)])
    return theta_part + table.contract(
        {(j - 1, i - j + 1): JetPoly.const(comb(i, j)) for j in range(1, i + 1)})


def test_lhs_recursion_matches_contraction():
    # L_i = derive(L_(i-1)) + P_{0,i} against the full contraction, through genus 7
    solver = LoopSolver(7)
    for i in range(3 * 7 - 1):
        assert solver.lhs_coefficient(i) == contracted_lhs(solver.table, i), i


class TestRhs:
    def test_genus1(self, solver):
        rhs = solver.rhs_genus(1, [])
        lin = JetPoly.monomial(Q(1, 24), (1, 0), {}) + JetPoly.const(Q(-1, 16))
        assert rhs.powers() == [JetPoly.zero(), lin,
                                JetPoly.const(Q(1, 16))]
        assert rhs.degree == 2

    def test_genus2_degree_bound(self, solver_g4, h123):
        rhs = solver_g4[0].rhs_genus(2, h123[:1])
        assert rhs.degree <= 7

    def test_missing_lower_data(self, solver):
        with pytest.raises(ValueError):
            solver.rhs_genus(2, [])


class TestSolve:
    @pytest.mark.parametrize("genus", [0, -2, 3])
    def test_genus_outside_the_range_rejected(self, genus):
        solver = LoopSolver(2)
        with pytest.raises(ValueError):
            solver.compute(genus)
        with pytest.raises(ValueError):
            solver.free_energy(genus)

    def test_genus1_gradient(self, h123):
        h1 = h123[0]
        assert h1.gradient[0] == JetPoly.monomial(Q(1, 24), (1, 0), {})
        assert h1.gradient[1] == JetPoly.z(1, -1) * Q(1, 24)
        assert h1.log_z1_coeff == Q(1, 24)

    def test_golden_h2(self, h123):
        h2 = h123[1]
        assert h2.body == parse_jet(H2_TEXT)

    def test_golden_h3(self, h123):
        h3 = h123[2]
        expect = parse_jet(H3_TEXT)
        assert len(h3.body.terms) == 36
        assert h3.body == expect

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_full_residual(self, solver_g4, g):
        solver, energies, _ = solver_g4
        assert not solver.residual(g, energies)

    @pytest.mark.parametrize("g", [2, 3])
    def test_homogeneity(self, h123, g):
        body = h123[g - 1].body
        assert body.weighted_degrees(lambda k: k) == {2 * g - 2}
        assert body.weighted_degrees(lambda k: k - 1, s1_weight=1, s3_weight=3) == {3 * g - 3}

    @pytest.mark.parametrize("g", [2, 3])
    def test_z0_absent(self, h123, g):
        fe = h123[g - 1]
        assert not fe.gradient[0]

    def test_cross_partials(self, h123):
        for fe in h123[1:]:
            grad = fe.gradient
            for i in range(len(grad)):
                for j in range(i + 1, len(grad)):
                    assert grad[i].partial(j) == grad[j].partial(i)

    def test_euler_identity(self, h123):
        for fe in h123[1:]:
            g, body = fe.genus, fe.body
            acc = JetPoly.zero()
            for j in range(1, 3 * g - 1):
                acc = acc + body.partial(j).mul_z(j) * Q(j)
            assert acc == body * Q(2 * g - 2)

    def test_row0_built_once_per_compute(self, monkeypatch, tmp_path):
        sizes = []
        build = ptensors._build_row0

        def counted(n_max):
            sizes.append(n_max)
            return build(n_max)

        monkeypatch.setattr(ptensors, "_build_row0", counted)
        LoopSolver(3).compute(3, cache_dir=str(tmp_path))
        assert sizes == [7]
        # a fully cached run solves nothing and builds no row 0
        LoopSolver(3).compute(3, cache_dir=str(tmp_path))
        assert sizes == [7]

    def test_f_table_built_once_per_compute(self, monkeypatch, tmp_path):
        sizes = []
        build = ptensors._build_f

        def counted(n_max):
            sizes.append(n_max)
            return build(n_max)

        monkeypatch.setattr(ptensors, "_build_f", counted)
        LoopSolver(3).compute(3, cache_dir=str(tmp_path))
        assert sizes == [7]
        # a fully cached run solves nothing and builds no f-table
        LoopSolver(3).compute(3, cache_dir=str(tmp_path))
        assert sizes == [7]

    def test_tables_built_before_the_first_clock(self, monkeypatch):
        # genus 1's wall_time carries neither one-time build of the solver
        events = []
        for name in ("_build_row0", "_build_f"):
            build = getattr(ptensors, name)
            monkeypatch.setattr(ptensors, name, lambda n_max, name=name, build=build:
                                events.append(name) or build(n_max))
        clock = loop.time.monotonic
        monkeypatch.setattr(loop, "time", SimpleNamespace(
            monotonic=lambda: events.append("clock") or clock()))
        LoopSolver(3).compute(3)
        assert events[:3] == ["_build_row0", "_build_f", "clock"]
        assert events.count("_build_row0") == events.count("_build_f") == 1

    def test_row0_builds_per_solver(self, monkeypatch, tmp_path):
        sizes = []
        build = ptensors._build_row0

        def counted(n_max):
            sizes.append(n_max)
            return build(n_max)

        monkeypatch.setattr(ptensors, "_build_row0", counted)
        cache = str(tmp_path)
        LoopSolver(5).compute(5, cache)
        assert sizes == [13]
        # the residuals of an all-hit cache build row 0 once, at the first P~ read
        del sizes[:]
        solver = LoopSolver(5)
        energies = solver.compute(5, cache)
        assert sizes == []
        for g in range(1, 6):
            assert not solver.residual(g, energies)
        assert sizes == [13]
        del sizes[:]
        assert LoopSolver(5).free_energy(5, cache).provenance.get("cache") == "hit"
        assert sizes == []
        solver, energies = LoopSolver(4), []
        for g in range(1, 5):
            energies.append(solver.solve_genus(g, energies))
        assert sizes == [10]

    @pytest.mark.parametrize("extra,message", [
        # pi_4 in P~_{0,2} gives L_2 a z1^2 pi_4 term, above its degree 3
        (ThetaPoly([JetPoly.zero()] * 3 + [JetPoly.one()]), "column 2 has Theta degree 4"),
        # s1 pi_3 in P~_{0,2} adds s1 z1^2 to the top coefficient (15/8) z1^2 of L_2
        (ThetaPoly([JetPoly.zero()] * 2 + [JetPoly.monomial(1, (1, 0), {})]), "single monomial")])
    def test_misshapen_lhs_column_raises_solve_error(self, extra, message):
        solver = LoopSolver(2)
        build = solver.table.ptilde
        solver.table.ptilde = lambda i, j: build(i, j) + extra if (i, j) == (0, 2) else build(i, j)
        with pytest.raises(SolveError, match=message) as exc:
            solver.compute(2)
        assert exc.value.row == 3

    @pytest.mark.parametrize("bad_genus", [1, 2, 3])
    def test_rhs_row_above_the_system_raises(self, monkeypatch, bad_genus):
        # a z1 pi_(3g) term in RHS_g, a row that no L_i reaches
        rhs_genus = LoopSolver.rhs_genus

        def with_high_row(self, g, lower):
            rhs = rhs_genus(self, g, lower)
            if g != bad_genus:
                return rhs
            return rhs + ThetaPoly([JetPoly.zero()] * (3 * g - 1) + [JetPoly.z(1)])

        monkeypatch.setattr(LoopSolver, "rhs_genus", with_high_row)
        with pytest.raises(LoopEquationError, match=f"at genus {bad_genus}$"):
            LoopSolver(3).compute(3)

    @pytest.mark.parametrize("genus", [2, 3, 4])
    @pytest.mark.parametrize("idx", [1, 2, 4])
    def test_wrong_back_substitution_raises(self, monkeypatch, genus, idx):
        # the genus-G solve returns dH_G/dz_idx doubled
        solve = linsolve.TriangularSystem.solve

        def doubled(self):
            xs = solve(self)
            if len(xs) == 3 * genus - 1:
                xs[idx] = xs[idx] * 2
            return xs

        monkeypatch.setattr(linsolve.TriangularSystem, "solve", doubled)
        with pytest.raises(LoopEquationError):
            LoopSolver(genus).compute(genus)

    def test_exponent_bounds_are_exact(self, energies_g5):
        """The gradings' exponent bounds are reached: H_g's largest |exponent|
        is max(1, 4g - 4), the cache reader's cap, and its gradient's 4g - 3,
        from z1^-(4g - 3) in dH_g/dz1, inside the 4g - 2 of a genus-g step."""
        from cubichodge.sparse import exponent, largest_exponent

        for fe in energies_g5:
            g = fe.genus
            assert largest_exponent(fe.body.terms) == max(1, 4 * g - 4), g
            assert max(largest_exponent(p.terms) for p in fe.gradient) == max(1, 4 * g - 3), g
            assert min(exponent(key, 3) for key in fe.gradient[1].terms) == -max(1, 4 * g - 3)

    def test_solver_size_guard(self):
        """A solver past GENUS_MAX could form an exponent of 4 genus_max - 2
        at or past the slot edge; one at GENUS_MAX cannot."""
        from cubichodge.sparse import SLOT_HALF

        assert 4 * loop.GENUS_MAX - 2 < SLOT_HALF <= 4 * (loop.GENUS_MAX + 1) - 2
        assert LoopSolver(loop.GENUS_MAX).table.n_max == 3 * loop.GENUS_MAX - 2
        for genus_max in (loop.GENUS_MAX + 1, 0):
            with pytest.raises(ValueError, match="genus_max"):
                LoopSolver(genus_max)

    def test_reconstruct_from_gradient(self, h123):
        solver = LoopSolver(4)
        h1 = solver.reconstruct(1, h123[0].gradient)
        assert h1.log_z1_coeff == Q(1, 24) and h1.body == h123[0].body
        h2 = solver.reconstruct(2, h123[1].gradient)
        assert h2.body == h123[1].body

    def test_reconstruct_rejects_open_gradient(self):
        solver = LoopSolver(2)
        bad = [JetPoly.z(1)] + [JetPoly.zero()] * 4
        with pytest.raises(LoopEquationError):
            solver.reconstruct(2, bad)
        # not closed (d/dz2 of entry 1 is 1, d/dz1 of entry 2 is 0), with dz0 = 0
        bad = [JetPoly.zero(), JetPoly.z(2)] + [JetPoly.zero()] * 3
        with pytest.raises(LoopEquationError):
            solver.reconstruct(2, bad)

    @pytest.mark.parametrize("extra,grading", [
        (JetPoly.z(3), "jet weights"),  # jet weight 3 and dual weight 2: both off
        (JetPoly.monomial(1, (0, 0), {1: -1, 4: 1}), "jet weights"),  # 3 and 3: the jet one
        (JetPoly.z(2), "dual grading"),  # 2 and 1: the dual one
        (JetPoly.monomial(1, (3, 0), {0: 1, 2: 1}), "z0 term")])  # 2 and 3, with a z0
    def test_homogeneity_check_names_the_broken_grading(self, h123, extra, grading):
        solver = LoopSolver(2)
        solver._check_homogeneity(h123[1])
        with pytest.raises(LoopEquationError, match=grading):
            solver._check_homogeneity(FreeEnergy(2, h123[1].body + extra))


def read_record(path) -> dict:
    """The record of a cache file, after its digest line."""
    with open(path, "rb") as fh:
        return json.loads(fh.read().partition(b"\n")[2])


def rewrite_record(path, change, sign=True) -> None:
    """Apply change to the record stored at path and write it back as
    store_cached writes it: under the digest line of the new bytes when
    sign is set, else under the old digest line."""
    with open(path, "rb") as fh:
        digest, _, text = fh.read().partition(b"\n")
    record = json.loads(text)
    change(record)
    text = (json_text(record, sort_keys=True) + "\n").encode()
    if sign:
        digest = hashlib.sha256(text).hexdigest().encode()
    with open(path, "wb") as fh:
        fh.write(digest + b"\n" + text)


def _store_tampered(tmp_path, fe, change=None) -> None:
    """Store fe's record, apply change (if any) to it and sign it again, as
    if written so."""
    path = store_cached(str(tmp_path), fe)
    if change:
        rewrite_record(path, change)

def f_table_image(fj, n: int, h: ThetaPoly) -> ThetaPoly:
    """sum_j f_{n,j} xi_euler^j h, which is derive^n h when h has jet-free coefficients."""
    pairs, xi = [], h
    for j in range(n + 1):
        pairs.append((xi, fj.f(n, j)))
        xi = xi.xi_euler()
    return ThetaPoly.dot([(tp, f) for tp, f in pairs if f])


CHAIN_N = 20


class TestChainRule:
    """derive^n of pi_1 and of T against their f-table images, n <= CHAIN_N."""

    @pytest.fixture(scope="class")
    def chain(self):
        t = ThetaPoly([JetPoly.monomial(Q(1, 24), (1, 0), {}), JetPoly.const(Q(-1, 16))])
        derived = {}
        for name, h in (("pi_1", ThetaPoly.theta()), ("T", t)):
            derived[name] = [h]
            for _ in range(CHAIN_N):
                derived[name].append(derived[name][-1].derive())
        return ptensors.PTensorTable(CHAIN_N), derived

    @pytest.mark.parametrize("name", ["pi_1", "T"])
    def test_derive_equals_f_table_image(self, chain, name):
        fj, derived = chain
        for n, d in enumerate(derived[name]):
            assert d == f_table_image(fj, n, derived[name][0]), n

    def test_derive_pi1_in_closed_form(self, chain):
        # xi_euler^j pi_1 = (-1)^j pi_(j+1)
        fj, derived = chain
        for n, d in enumerate(derived["pi_1"]):
            assert d == ThetaPoly([fj.f(n, j) * (-1) ** j for j in range(n + 1)]), n

    def test_xi_t_is_derived_t(self, chain):
        fj, derived = chain
        solver = LoopSolver(7)
        for n, d in enumerate(derived["T"]):
            assert solver.xi_t([fj.f(n, j) for j in range(n + 1)]) == d, n


class TestCache:
    def test_roundtrip(self, tmp_path, h123):
        h2 = h123[1]
        store_cached(str(tmp_path), h2)
        again = load_cached(str(tmp_path), 2)
        assert again is not None
        assert again.body == h2.body and again.gradient == h2.gradient

    def test_corruption_detected(self, tmp_path, h123):
        h1, h2 = h123[0], h123[1]
        path = store_cached(str(tmp_path), h2)

        def change(record):
            record["body"][0]["coef"] = "1/2"

        rewrite_record(path, change, sign=False)
        assert load_cached(str(tmp_path), 2) is None
        # any changed byte after the digest line misses
        path = store_cached(str(tmp_path), h1)
        with open(path, "rb") as fh:
            data = fh.read()
        start = data.index(b"\n") + 1
        assert load_cached(str(tmp_path), 1) is not None
        for i in range(start, len(data)):
            with open(path, "wb") as fh:
                fh.write(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
            assert load_cached(str(tmp_path), 1) is None, i

    @staticmethod
    def _store_version_part(tmp_path, fe, part: int, value) -> None:
        """Store fe's record signed, with the given part of its version
        (solver, text form, P~ construction) replaced by value."""
        def change(record):
            parts = record["version"].split("|")
            parts[part] = value
            record["version"] = "|".join(parts)

        assert CACHE_VERSION.split("|")[part] != value
        _store_tampered(tmp_path, fe, change)

    def test_fingerprint_mismatch(self, tmp_path, h123):
        # a record from another P~ construction misses
        self._store_version_part(tmp_path, h123[1], 2, "ptensor-v0")
        assert load_cached(str(tmp_path), 2) is None

    def test_other_solver_version_misses(self, tmp_path, h123):
        self._store_version_part(tmp_path, h123[1], 0, "loop-solver-v0")
        assert load_cached(str(tmp_path), 2) is None
        store_cached(str(tmp_path), h123[1])
        assert load_cached(str(tmp_path), 2) is not None

    @pytest.mark.parametrize("version", ["textform-v0", None])
    def test_other_text_form_version_misses(self, tmp_path, h123, version):
        path = store_cached(str(tmp_path), h123[1])
        assert read_record(path)["version"] == CACHE_VERSION
        assert load_cached(str(tmp_path), 2) is not None
        if version is None:
            rewrite_record(path, lambda record: record.pop("version"))
        else:
            self._store_version_part(tmp_path, h123[1], 1, version)
        assert load_cached(str(tmp_path), 2) is None

    @pytest.mark.parametrize("module, name", [(loop, "SOLVER_VERSION"),
                                              (textform, "TEXT_FORM_VERSION"),
                                              (ptensors, "CONSTRUCTION_VERSION")],
                             ids=["solver", "textform", "construction"])
    def test_each_version_constant_makes_a_miss(self, tmp_path, h123, monkeypatch, module, name):
        # what a program whose constant differs would write and read
        def version():
            return "|".join([loop.SOLVER_VERSION, textform.TEXT_FORM_VERSION,
                             ptensors.CONSTRUCTION_VERSION])

        assert CACHE_VERSION == version()
        store_cached(str(tmp_path), h123[1])
        monkeypatch.setattr(module, name, getattr(module, name) + "-next")
        monkeypatch.setattr(loop, "CACHE_VERSION", version())
        assert load_cached(str(tmp_path), 2) is None

    @pytest.mark.parametrize("provenance", [[], "x", None])
    def test_provenance_of_wrong_shape_misses(self, tmp_path, h123, provenance):
        def change(record):
            record["provenance"] = provenance

        _store_tampered(tmp_path, h123[1], change)
        assert load_cached(str(tmp_path), 2) is None

    def test_unsigned_provenance_edit_misses(self, tmp_path, h123):
        # the digest covers the provenance too, not just the body
        path = store_cached(str(tmp_path), FreeEnergy(2, h123[1].body,
                                                      provenance={"wall_time": 1.0}))

        def change(record):
            record["provenance"]["wall_time"] = 2.0

        rewrite_record(path, change, sign=False)
        assert load_cached(str(tmp_path), 2) is None
        rewrite_record(path, change)
        assert load_cached(str(tmp_path), 2).provenance == {"wall_time": 2.0, "cache": "hit"}

    @pytest.mark.parametrize("field", ["coef", "log_z1_coeff"])
    def test_zero_denominator_misses(self, tmp_path, h123, capsys, field):
        from cubichodge.cli import main

        def zero_den(record):
            if field == "coef":
                record["body"][0]["coef"] = "1/0"
            else:
                record["log_z1_coeff"] = "1/0"

        _store_tampered(tmp_path, h123[1], zero_den)
        assert load_cached(str(tmp_path), 2) is None
        # the CLI solves again instead of failing on the record
        assert main(["compute", "--genus", "2", "--cache-dir", str(tmp_path)]) == 0
        assert load_cached(str(tmp_path), 2) is not None
        capsys.readouterr()

    @pytest.mark.parametrize("genus, log_c", [(1, None), (2, "1/24")])
    def test_log_coefficient_off_its_genus_misses(self, tmp_path, h123, capsys, genus, log_c):
        # only H_1 carries a log z1 term: a signed record without it at genus
        # 1, or with it at genus 2, is corrupt, and every command solves again
        from cubichodge.cli import main

        def set_log(record):
            record["log_z1_coeff"] = log_c

        _store_tampered(tmp_path, h123[genus - 1], set_log)
        assert load_cached(str(tmp_path), genus) is None
        for argv in (["compute", "--genus", str(genus)], ["compute", "--genus", "3"],
                     ["hodge", "--genus", str(genus)], ["verify", "--genus", str(genus)]):
            _store_tampered(tmp_path, h123[genus - 1], set_log)
            assert main(argv + ["--cache-dir", str(tmp_path)]) == 0, argv
            assert load_cached(str(tmp_path), genus) is not None
        capsys.readouterr()

    @pytest.mark.parametrize("sigma", [[0, 0, 5], [1], [-1, 0], [0.5, 0], ["1", 0], 3])
    def test_sigma_of_wrong_shape_misses(self, tmp_path, h123, sigma):
        def bad_sigma(record):
            record["body"][0]["sigma"] = sigma

        _store_tampered(tmp_path, h123[1], bad_sigma)
        assert load_cached(str(tmp_path), 2) is None

    @pytest.mark.parametrize("name", ["z-1", "z5", "z100000000"])
    def test_jet_index_out_of_range_misses(self, tmp_path, h123, monkeypatch, name):
        # H_2's jets end at z4; the last term takes the bad jet
        def bad_jet(record):
            record["body"][-1]["jets"][name] = 1

        _store_tampered(tmp_path, h123[1], bad_jet)

        def no_packed(*args):
            raise AssertionError("a polynomial was built before every term was checked")

        monkeypatch.setattr(JetPoly, "packed", no_packed)
        assert load_cached(str(tmp_path), 2) is None

    def test_jets_of_wrong_shape_misses(self, tmp_path, h123):
        def bad_jets(record):
            record["body"][0]["jets"] = []

        _store_tampered(tmp_path, h123[1], bad_jets)
        assert load_cached(str(tmp_path), 2) is None

    def test_split_and_zero_terms_read_back_whole(self, tmp_path, h123):
        """Repeated terms are summed, zero ones dropped, and a negative
        denominator normalised: the record reads back as the solved body,
        with its den."""
        h2 = h123[1].body

        def rewrite(record):
            body = record["body"]
            num, den = map(int, body[0]["coef"].split("/"))
            # two halves of the first term, each written over a negative denominator
            body[0]["coef"] = f"{-3 * num}/{-6 * den}"
            body.insert(1, dict(body[0]))
            body.append({"coef": "0/7", "sigma": [0, 0], "jets": {"z2": 1}})
            body.append({"coef": "1/3", "sigma": [1, 0], "jets": {"z2": 2}})
            body.append({"coef": "-2/6", "sigma": [1, 0], "jets": {"z2": 2}})

        _store_tampered(tmp_path, h123[1], rewrite)
        fe = load_cached(str(tmp_path), 2)
        assert fe is not None
        assert fe.body == h2 and fe.body.den == h2.den

    @pytest.mark.parametrize("change", [
        ("coef", "1/0"), ("coef", "1/2/3"), ("coef", 5), ("coef", "x"),
        ("z2", True), ("z2", 1.0), ("z2", "1"), ("z2", None),
        ("z2", 2 ** 15), ("z1", -(2 ** 15)), ("sigma", [2 ** 15, 0]),
        ("z0", -1), ("z2", -1), ("x1", 1), ("z01", 1),
    ], ids=repr)
    def test_bad_term_misses(self, tmp_path, h123, change):
        field, value = change

        def bad_term(record):
            term = record["body"][-1]
            if field in ("coef", "sigma"):
                term[field] = value
            else:
                term["jets"][field] = value

        _store_tampered(tmp_path, h123[1], bad_term)
        assert load_cached(str(tmp_path), 2) is None

    @pytest.mark.parametrize("field", ["z1", "z2", "sigma"])
    def test_largest_exponents_hit(self, tmp_path, h123, field):
        """The reader caps a genus-2 record's exponents at 4g - 4 = 4, the
        largest H_2 has: a term at the cap hits, one past it misses."""
        def big_term(e):
            def change(record):
                term = {"coef": "1/5", "sigma": [0, 0], "jets": {}}
                if field == "sigma":
                    term["sigma"] = [e, 0]
                else:
                    term["jets"][field] = -e if field == "z1" else e
                record["body"].append(term)
            return change

        _store_tampered(tmp_path, h123[1], big_term(4))
        fe = load_cached(str(tmp_path), 2)
        assert fe is not None and fe.body != h123[1].body
        _store_tampered(tmp_path, h123[1], big_term(5))
        assert load_cached(str(tmp_path), 2) is None

    @pytest.mark.parametrize("g,jets", [(1, {"z1": 1}), (2, {"z2": 1})])
    def test_ungraded_record_is_solved_again(self, tmp_path, h123, g, jets):
        """A record inside the cap but off the gradings (at genus 1, off the
        closed form) is read, but compute solves its genus again before a
        solve reads it, and stores it anew."""
        def off_grading(record):
            record["body"].append({"coef": "1/5", "sigma": [0, 0], "jets": jets})

        for fe in h123[:g - 1]:
            store_cached(str(tmp_path), fe)
        _store_tampered(tmp_path, h123[g - 1], off_grading)
        assert load_cached(str(tmp_path), g) is not None
        energies = LoopSolver(3).compute(3, str(tmp_path))
        cached = [fe.provenance.get("cache") for fe in energies]
        assert cached == ["hit"] * (g - 1) + [None] * (4 - g)
        assert [fe.body for fe in energies] == [fe.body for fe in h123]
        assert load_cached(str(tmp_path), g).body == h123[g - 1].body

    def test_torn_write_keeps_previous_record(self, tmp_path, h123, monkeypatch):
        fe = FreeEnergy(2, h123[1].body)
        path = store_cached(str(tmp_path), fe)
        before = open(path).read()

        class TornFile:
            """A file whose first write stops after 100 bytes."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:100])
                raise OSError("disk full")

        # the write inside store_cached fails part way
        monkeypatch.setattr(loop, "open", lambda path, mode="r": TornFile(open(path, mode)),
                            raising=False)
        with pytest.raises(OSError):
            store_cached(str(tmp_path), fe)
        monkeypatch.undo()
        assert open(path).read() == before
        assert [p.name for p in tmp_path.iterdir()] == ["free_energy_g2.json"]
        assert load_cached(str(tmp_path), 2) is not None

    def test_compute_resumes(self, tmp_path, h123):
        solver = LoopSolver(2)
        first = solver.compute(2, cache_dir=str(tmp_path))
        second = LoopSolver(2).compute(2, cache_dir=str(tmp_path))
        assert second[1].provenance.get("cache") == "hit"
        assert first[1].body == second[1].body


# sha256 of the canonical text of H_4, H_5 and of R_4, R_5, frozen from the
# solver before its unreachable paths were removed; a kernel rewrite must keep them.
FROZEN_SHA256 = {
    "H_4": "e3f13ea5b003edb7aa593f0e5e37579d02d496063f967e71249276d769661321",
    "R_4": "4d655db7a66ff73ff6ccc4059a149cf7cf479e441ab6b88109ad9d12df7d05f0",
    "H_5": "dfc56e79a800c9a52c94132c96f89c4716b7815412788432b24a8fa91c606205",
    "R_5": "72315a03fd9f433b9c05de008091b8542da7e2e3e9c0a25573cb4afc3e43b5a4",
}


def test_frozen_hashes_g4_g5(solver_g4, energies_g5):
    from cubichodge.outputs import r_poly
    from cubichodge.textform import jet_text

    h4, h5 = solver_g4[1][3], energies_g5[4]
    texts = {
        "H_4": h4.body_text(),
        "R_4": jet_text(r_poly(h4)),
        "H_5": h5.body_text(),
        "R_5": jet_text(r_poly(h5)),
    }
    got = {name: hashlib.sha256(t.encode()).hexdigest() for name, t in texts.items()}
    assert got == FROZEN_SHA256


# sha256 of the genus-3 cache record file, with a fixed wall time.  Frozen
# again when the record format changed on purpose: a digest line over the
# stored bytes, and one version in place of the solver, text-form and
# construction entries.
FROZEN_RECORD_G3_SHA256 = "7227255f8736fdad3cb0807ea81e58493ea555c4875fc24e44e4064917ca3399"

# sha256 of the same record in the earlier format ({payload, provenance,
# sha256}, the digest over a json.dumps of the payload and the construction
# fingerprint), as frozen while that format was written.
PAYLOAD_RECORD_G3_SHA256 = "e778d2cf35e2f1db642b2e983edb3b5d239acd490d11e710a9aee953250fb837"


def test_frozen_cache_record_g3(tmp_path, h123):
    fe = FreeEnergy(3, h123[2].body, provenance={"wall_time": 1.0})
    with open(store_cached(str(tmp_path), fe), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == FROZEN_RECORD_G3_SHA256


def payload_format_record(fe: FreeEnergy) -> str:
    """fe's record in the earlier format, with a wall time of 1.0."""
    fingerprint = hashlib.sha256(ptensors.CONSTRUCTION_VERSION.encode()).hexdigest()[:16]
    log_c = fe.log_z1_coeff
    payload = {"genus": fe.genus, "body": textform.jet_json(fe.body),
               "log_z1_coeff": f"{log_c.numerator}/{log_c.denominator}" if log_c else None}
    blob = json.dumps(payload, sort_keys=True) + "|" + fingerprint
    record = {"payload": payload,
              "provenance": {"ptable": fingerprint, "solver": SOLVER_VERSION,
                             "textform": textform.TEXT_FORM_VERSION, "wall_time": 1.0},
              "sha256": hashlib.sha256(blob.encode()).hexdigest()}
    return json_text(record, sort_keys=True) + "\n"


def test_payload_format_record_misses_and_is_overwritten(tmp_path, h123):
    text = payload_format_record(h123[2])
    assert hashlib.sha256(text.encode()).hexdigest() == PAYLOAD_RECORD_G3_SHA256
    cache = str(tmp_path)
    with open(cache_path(cache, 3), "w") as fh:
        fh.write(text)
    assert load_cached(cache, 3) is None
    energies = LoopSolver(3).compute(3, cache)
    assert "cache" not in energies[2].provenance
    assert read_record(cache_path(cache, 3))["version"] == CACHE_VERSION
    assert load_cached(cache, 3).body == h123[2].body


def test_genus4_solved_from_cached_bodies(tmp_path, monkeypatch):
    """Records hold H_g alone; the next genus reads gradients derived from them."""
    cache = str(tmp_path)
    LoopSolver(3).compute(3, cache)
    solved = []
    solve_genus = LoopSolver.solve_genus

    def counting(self, g, lower):
        solved.append(g)
        return solve_genus(self, g, lower)

    monkeypatch.setattr(LoopSolver, "solve_genus", counting)
    energies = LoopSolver(4).compute(4, cache)
    assert solved == [4]
    assert [fe.provenance.get("cache") for fe in energies] == ["hit", "hit", "hit", None]
    h4 = hashlib.sha256(energies[3].body_text().encode()).hexdigest()
    assert h4 == FROZEN_SHA256["H_4"]
    for g in range(1, 5):
        record = read_record(cache_path(cache, g))
        assert sorted(record) == ["body", "genus", "log_z1_coeff", "provenance", "version"]
        assert sorted(record["provenance"]) == ["wall_time"]


# sha256 of the canonical text of H_6 and R_6, frozen before L_i and the RHS
# were built by contracting P~ against jet-only weights.
FROZEN_SHA256_G6 = {
    "H_6": "e2f1bb4d7ac9dddcb57354525293f0a5e9fbe81c58d49d7aa3b7cc2b6cc2ffbf",
    "R_6": "07e0405be557ebed07494d6f3790446d7ad9e60eac57424db37231264f09fee5",
}


def test_frozen_hashes_g6(energies_g6):
    from cubichodge.outputs import r_poly
    from cubichodge.textform import jet_text

    h6 = energies_g6[5]
    texts = {"H_6": h6.body_text(), "R_6": jet_text(r_poly(h6))}
    got = {name: hashlib.sha256(t.encode()).hexdigest() for name, t in texts.items()}
    assert got == FROZEN_SHA256_G6


# sha256 of the canonical text of H_7 and R_7, frozen before the solver summed
# its products over one common denominator.
FROZEN_SHA256_G7 = {
    "H_7": "c26bac7bc89a07c77e3b8ea4511500f704e434a7c68c4db9d450e68ce1074c37",
    "R_7": "480e34b18140912a55a3368ba67046529a8b072e929de8ec4be5697a5860b2f5",
}


def test_frozen_hashes_g7(energies_g7):
    from cubichodge.outputs import r_poly
    from cubichodge.textform import jet_text

    h7 = energies_g7[6]
    texts = {"H_7": h7.body_text(), "R_7": jet_text(r_poly(h7))}
    got = {name: hashlib.sha256(t.encode()).hexdigest() for name, t in texts.items()}
    assert got == FROZEN_SHA256_G7


def test_anchor_script_through_genus5():
    """tests/anchors.py holds prefixes of the frozen hashes above, and its
    check passes through genus 5."""
    import anchors

    frozen = {**FROZEN_SHA256, **FROZEN_SHA256_G6, **FROZEN_SHA256_G7}
    for g in range(4, 8):
        h, r = anchors.ANCHORS[g]
        assert frozen[f"H_{g}"].startswith(h) and frozen[f"R_{g}"].startswith(r), g
    ok, lines = anchors.check(5)
    assert ok, lines
    assert [line.split(":")[0] for line in lines] == ["genus 4", "genus 5"]


def test_no_exponent_bound_rescans(monkeypatch):
    """A solve forms its products through JetPoly.dot alone, whose keys the
    gradings keep inside their slots: the key scan of the guarded `*` and
    `**` never runs."""
    from cubichodge import jets

    calls = []
    scan = jets.largest_exponent
    monkeypatch.setattr(jets, "largest_exponent", lambda terms: calls.append(1) or scan(terms))
    assert JetPoly.z(2) * JetPoly.z(3) == JetPoly({(0, 0, 0, 0, 1, 1): 1}) and len(calls) == 2
    calls.clear()
    LoopSolver(6).compute(6)
    assert calls == []
