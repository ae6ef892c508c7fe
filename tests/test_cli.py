import json
import os

import pytest

from cubichodge.cli import main
from cubichodge.jets import JetPoly
from cubichodge.loop import GENUS_MAX
from cubichodge.phiseries import DEGREE_MAX
from cubichodge.sparse import SLOT_HALF

from golden import H1_TEXT, H2_TEXT, R2_TEXT, R3_TEXT
from test_loop import read_record, rewrite_record


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_genus1(capsys):
    code, out, _ = run_cli(capsys, "compute", "--genus", "1")
    assert code == 0
    assert out.strip() == H1_TEXT


def test_compute_genus2(capsys):
    code, out, _ = run_cli(capsys, "compute", "--genus", "2")
    assert code == 0
    assert out.strip() == H2_TEXT


@pytest.mark.parametrize("argv", [
    ["compute", "--genus", "0"],
    ["frobnicate"],
    ["rg", "--genus", "1"],
    ["verify", "--suite", "nope"],
    ["virasoro", "--k1", "2", "--k2", "4"],
    ["hodge", "--genus", "1", "--tmax", "-1"],
    ["hodge", "--genus", "1", "--dmax", "-3"],
    ["compute", "--genus", "1", "--cutoff", "0"],
    ["compute", "--genus", "3", "--cutoff", "5"],
    ["verify", "--suite", "bell", "--cutoff", "0"],
    ["verify", "--genus", "0"],
    ["verify", "--genus", "-3", "--suite", "ptable"],
    ["virasoro", "--k1", "1", "--k2", "2", "--mmax", "-1"],
    ["virasoro", "--k1", "1", "--k2", "2", "--degree", "-1"],
    ["compute", "--genus", "1", "--threads", "1"],
    ["virasoro", "--k1", "1", "--k2", "2", "--mmax", "1", "--index-bound", "-4"],
    ["virasoro", "--k1", "1", "--k2", "2", "--mmax", "0", "--index-bound", "-1"],
    ["virasoro", "--k1", "1", "--k2", "2", "--format", "json"],
    ["virasoro", "--k1", "1", "--k2", "2", "--cutoff", "5"],
    ["virasoro", "--k1", "1", "--k2", "2", "--cache-dir", "cache"],
    ["verify", "--suite", "bell", "--format", "json"],
    ["compute", "--genus", str(GENUS_MAX + 1)],
    ["rg", "--genus", str(GENUS_MAX + 1)],
    ["hodge", "--genus", str(GENUS_MAX + 1)],
    ["verify", "--genus", str(GENUS_MAX + 1), "--suite", "gap"],
    ["hodge", "--genus", "2", "--dmax", str(DEGREE_MAX + 1)],
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_hodge_tmax_names_a_slot_not_an_exponent(capsys):
    """--tmax enters no exponent: the table stops at t_(3g-3+dmax), so a
    --tmax far past the slot edge prints the table of that last index."""
    wide = run_cli(capsys, "hodge", "--genus", "2", "--tmax", str(4 * SLOT_HALF), "--dmax", "3")
    assert wide[0] == 0
    assert wide == run_cli(capsys, "hodge", "--genus", "2", "--tmax", "6", "--dmax", "3")


@pytest.mark.parametrize("case", ["cache-dir-is-file", "cache-env-is-file", "cache-dir-under-file",
                                  "cache-env-under-file", "dump-parent-missing",
                                  "dump-parent-is-file", "dump-is-directory"])
def test_bad_paths_exit_2_before_solving(tmp_path, capsys, monkeypatch, case):
    import cubichodge.cli as cli

    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.delenv("CUBICHODGE_CACHE", raising=False)
    argv = ["compute", "--genus", "2"]
    if case == "cache-dir-is-file":
        argv += ["--cache-dir", str(afile)]
    elif case == "cache-env-is-file":
        monkeypatch.setenv("CUBICHODGE_CACHE", str(afile))
    elif case == "cache-dir-under-file":
        argv += ["--cache-dir", str(afile / "sub" / "deeper")]
    elif case == "cache-env-under-file":
        monkeypatch.setenv("CUBICHODGE_CACHE", str(afile / "sub"))
    elif case == "dump-parent-missing":
        argv += ["--dump-ptable", str(tmp_path / "missing" / "x.json")]
    elif case == "dump-is-directory":
        argv += ["--dump-ptable", str(tmp_path)]
    else:
        argv += ["--dump-ptable", str(afile / "x.json")]

    def no_solving(self, g, lower):
        raise AssertionError(f"genus {g} solved despite a bad path")

    monkeypatch.setattr(cli.LoopSolver, "solve_genus", no_solving)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "directory" in capsys.readouterr().err


def test_new_nested_cache_dir_is_made(tmp_path, capsys):
    cache = tmp_path / "new" / "nested"
    code, out, _ = run_cli(capsys, "compute", "--genus", "1", "--cache-dir", str(cache))
    assert code == 0 and os.listdir(cache) == ["free_energy_g1.json"]


def test_index_bound_error_names_minimum(capsys):
    with pytest.raises(SystemExit):
        main(["virasoro", "--k1", "1", "--k2", "2", "--mmax", "1", "--index-bound", "-4"])
    assert "--index-bound must be >= -3" in capsys.readouterr().err


@pytest.mark.parametrize("mmax, bound", [("1", "-3"), ("0", "0")])
def test_smallest_index_bound_passes(capsys, mmax, bound):
    code, out, _ = run_cli(capsys, "virasoro", "--k1", "1", "--k2", "2", "--mmax", mmax,
                           "--degree", "2", "--index-bound", bound)
    assert code == 0 and "all commutators pass" in out


def test_basis_deeper_than_recursion_limit(capsys):
    # x^0..x^1200: the basis is enumerated without one call per degree
    code, out, _ = run_cli(capsys, "virasoro", "--k1", "1", "--k2", "2", "--mmax", "1",
                           "--degree", "1200", "--index-bound", "-3")
    assert code == 0 and "basis size 1201," in out and "all commutators pass" in out


def test_determinism(capsys):
    _, first, _ = run_cli(capsys, "compute", "--genus", "2", "--format", "json")
    _, second, _ = run_cli(capsys, "compute", "--genus", "2", "--format", "json")
    assert first == second


def test_rg_outputs(capsys):
    code, out, _ = run_cli(capsys, "rg", "--genus", "2")
    assert code == 0 and out.strip() == f"R_2 = {R2_TEXT}"
    code, out, _ = run_cli(capsys, "rg", "--genus", "3")
    assert code == 0 and out.strip() == f"R_3 = {R3_TEXT}"


def test_cache_roundtrip_and_corruption(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, first, _ = run_cli(capsys, "compute", "--genus", "2", "--cache-dir", cache)
    assert code == 0
    files = sorted(os.listdir(cache))
    assert files == ["free_energy_g1.json", "free_energy_g2.json"]
    # cached rerun is byte-identical
    code, again, _ = run_cli(capsys, "compute", "--genus", "2", "--cache-dir", cache)
    assert code == 0 and again == first
    # corrupt the body; the stale digest must force a recompute, not reuse
    path = os.path.join(cache, "free_energy_g2.json")

    def change(record):
        record["body"][0]["coef"] = "999/1"

    rewrite_record(path, change, sign=False)
    code, healed, _ = run_cli(capsys, "compute", "--genus", "2", "--cache-dir", cache)
    assert code == 0 and healed == first


@pytest.mark.parametrize("provenance", [[], "x", None])
def test_cache_record_of_wrong_shape_recomputes(tmp_path, capsys, provenance):
    cache = str(tmp_path / "cache")
    code, first, _ = run_cli(capsys, "compute", "--genus", "2", "--cache-dir", cache)
    assert code == 0
    path = os.path.join(cache, "free_energy_g2.json")

    def change(record):
        record["provenance"] = provenance

    rewrite_record(path, change)
    code, again, _ = run_cli(capsys, "compute", "--genus", "2", "--cache-dir", cache)
    assert code == 0 and again == first
    assert isinstance(read_record(path)["provenance"], dict)


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so the variable must be read on each call:
    # set after a first call, it still takes effect
    monkeypatch.delenv("CUBICHODGE_CACHE", raising=False)
    assert run_cli(capsys, "compute", "--genus", "1")[0] == 0
    cache, flag = tmp_path / "envcache", tmp_path / "flagcache"
    monkeypatch.setenv("CUBICHODGE_CACHE", str(cache))
    code, _, _ = run_cli(capsys, "compute", "--genus", "1")
    assert code == 0
    assert os.listdir(cache) == ["free_energy_g1.json"]
    # an explicit --cache-dir wins over the variable, and an empty one turns caching off
    assert run_cli(capsys, "compute", "--genus", "2", "--cache-dir", str(flag))[0] == 0
    assert sorted(os.listdir(flag)) == ["free_energy_g1.json", "free_energy_g2.json"]
    assert run_cli(capsys, "compute", "--genus", "2", "--cache-dir", "")[0] == 0
    assert os.listdir(cache) == ["free_energy_g1.json"]


def test_one_call_leaves_nothing_for_the_next(capsys):
    # a usage error after --suite was read, then calls that each name one suite
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bell", "--genus", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "verify", "--suite", "bell") == (0, "PASS bell\n", "")
    assert run_cli(capsys, "verify", "--suite", "power-sum") == (0, "PASS power-sum\n", "")


def test_warm_commands_read_only_the_requested_genus(tmp_path, capsys, monkeypatch):
    import cubichodge.cli as cli

    cache = str(tmp_path / "cache")
    assert run_cli(capsys, "compute", "--genus", "3", "--cache-dir", cache)[0] == 0
    commands = [("hodge", "--genus", "3", "--tmax", "3", "--dmax", "4", "--format", "json"),
                ("rg", "--genus", "3"),
                ("compute", "--genus", "3")]
    before = [run_cli(capsys, *argv, "--cache-dir", cache) for argv in commands]
    for g in (1, 2):
        os.unlink(os.path.join(cache, f"free_energy_g{g}.json"))

    def no_solving(self, g, lower):
        raise AssertionError(f"genus {g} solved from a warm cache")

    monkeypatch.setattr(cli.LoopSolver, "solve_genus", no_solving)
    after = [run_cli(capsys, *argv, "--cache-dir", cache) for argv in commands]
    assert after == before
    assert all(code == 0 for code, _, _ in after)


@pytest.mark.parametrize("genus,dmax", [(2, 2), (2, 4), (3, 2)])
def test_hodge_large_tmax(capsys, genus, dmax):
    # no t_i with i > 3g-3+dmax can occur, so a larger --tmax changes nothing
    common = ("hodge", "--genus", str(genus), "--dmax", str(dmax), "--integrals", "--format", "json")
    code, top, _ = run_cli(capsys, *common, "--tmax", str(3 * genus - 3 + dmax))
    assert code == 0
    code, huge, err = run_cli(capsys, *common, "--tmax", "2000")
    assert code == 0 and not err
    assert huge == top


def test_verify_selected_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bell", "--suite", "power-sum")
    assert code == 0
    assert out.splitlines() == ["PASS bell", "PASS power-sum"]


def test_verify_rational_suites_build_no_f_table(capsys, monkeypatch):
    from cubichodge import ptensors

    sizes = []
    build = ptensors._build_f

    def counted(n_max):
        sizes.append(n_max)
        return build(n_max)

    monkeypatch.setattr(ptensors, "_build_f", counted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "bridge", "--suite", "series-oracles")
    assert code == 0
    assert out.splitlines() == ["PASS bridge", "PASS series-oracles"]
    assert sizes == []


def test_verify_loop_residual(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "loop-residual", "--genus", "2")
    assert code == 0 and out.strip() == "PASS loop-residual"


def test_verify_solves_each_genus_once(capsys, monkeypatch):
    import cubichodge.cli as cli

    monkeypatch.delenv("CUBICHODGE_CACHE", raising=False)
    solved = []
    solve_genus = cli.LoopSolver.solve_genus

    def counting(self, g, lower):
        solved.append(g)
        return solve_genus(self, g, lower)

    monkeypatch.setattr(cli.LoopSolver, "solve_genus", counting)
    code, out, _ = run_cli(capsys, "verify", "--suite", "loop-residual", "--suite", "gradient",
                           "--genus", "2")
    assert code == 0
    assert out.splitlines() == ["PASS loop-residual", "PASS gradient"]
    assert solved == [1, 2]


@pytest.mark.parametrize("case", ["z0-term", "not-euler-homogeneous"])
def test_verify_gradient_rejects_bad_body(capsys, monkeypatch, h123, case):
    import cubichodge.cli as cli
    from cubichodge.loop import FreeEnergy
    from cubichodge.ratio import Q

    h1, h2 = h123[:2]
    # z0 z1^2 has Euler weight 2 = 2g-2, so only the z0 check can catch it;
    # z3 has weight 3 and breaks the Euler identity
    extra, detail = {
        "z0-term": (JetPoly.monomial(Q(1, 7), (0, 0), {0: 1, 1: 2}), "dH_2/dz0 != 0"),
        "not-euler-homogeneous": (JetPoly.z(3), "Euler identity fails at genus 2"),
    }[case]
    broken = FreeEnergy(2, h2.body + extra)
    monkeypatch.setattr(cli.LoopSolver, "compute", lambda self, genus, cache_dir=None: [h1, broken])
    code, out, _ = run_cli(capsys, "verify", "--suite", "gradient", "--genus", "2")
    assert code == 1
    assert out.splitlines() == [f"FAIL gradient: {detail}"]


@pytest.mark.parametrize("case", ["doubled-term", "degree-bound", "h1-log"])
def test_verify_gap_fails_on_a_bad_energy(capsys, monkeypatch, h123, case):
    import cubichodge.cli as cli
    from cubichodge.loop import FreeEnergy
    from cubichodge.ratio import Q

    assert run_cli(capsys, "verify", "--suite", "gap", "--genus", "3") == (0, "PASS gap\n", "")
    h1, h2, h3 = h123
    # the term of H_3 with the top sigma degree (a z1 power times s1^a s3^b,
    # a + 3b = 6) feeds the top part of R_3 alone; s1^7 lies past the bound
    key, c = max(h3.body.items(), key=lambda kc: kc[0][0] + 3 * kc[0][1])
    if case == "doubled-term":
        h3 = FreeEnergy(3, h3.body + JetPoly({key: c}))
        detail = "top part of R_3 differs from the Faber form"
    elif case == "degree-bound":
        h3 = FreeEnergy(3, h3.body + JetPoly.monomial(Q(1), (7, 0), {}))
        detail = "R_3 exceeds the degree bound"
    else:
        h1 = FreeEnergy(1, h1.body, log_z1_coeff=Q(1, 12))
        detail = "H_1 does not collapse to ((s1 - 1)/24) log x"
    monkeypatch.setattr(cli.LoopSolver, "compute", lambda self, genus, cache_dir=None: [h1, h2, h3])
    code, out, _ = run_cli(capsys, "verify", "--suite", "gap", "--genus", "3")
    assert code == 1
    assert out.splitlines() == [f"FAIL gap: {detail}"]


def test_verify_ptable_fails_on_a_wrong_top_coefficient(capsys, monkeypatch):
    import cubichodge.cli as cli
    from cubichodge.ptensors import top_coefficient_value

    monkeypatch.setattr(cli, "top_coefficient_value", lambda i, j: top_coefficient_value(i, j) + 1)
    code, out, _ = run_cli(capsys, "verify", "--suite", "ptable")
    assert code == 1
    assert out.splitlines() == ["FAIL ptable: P~(0,0) top coefficient"]


def test_verify_bridge_fails_on_a_wrong_pairing(capsys, monkeypatch):
    from cubichodge.virasoro import BtildeTable

    term = BtildeTable.residue_term

    def doubled(self, p, q, n):
        num, den = term(self, p, q, n)
        return 2 * num, den

    # the table's pairings and A_{k,n} terms all read residue_term
    monkeypatch.setattr(BtildeTable, "residue_term", doubled)
    code, out, _ = run_cli(capsys, "verify", "--suite", "bridge")
    assert code == 1
    assert out.splitlines() == ["FAIL bridge: (i,j)=(0,0) for K=(1,2)"]


def test_verify_series_oracles_fail_on_a_wrong_q_number(capsys, monkeypatch):
    import cubichodge.oracles as oracles

    q_number = oracles.q_number
    monkeypatch.setattr(oracles, "q_number", lambda n, k: q_number(n, k) + 1)
    code, out, _ = run_cli(capsys, "verify", "--suite", "series-oracles")
    assert code == 1
    assert out.splitlines() == ["FAIL series-oracles: Q oracle: n=0, xi^0: 2 != 1"]


@pytest.mark.parametrize("k1, index, step, line", [
    (1, 3, 1, "V1 asymptotics (1,2): z^-3: 35/24 != 11/24"),
    (2, 5, -1, "V1 asymptotics (2,3): z^-5: -206771/324000 != 117229/324000"),
], ids=["first-pair", "second-pair"])
def test_verify_series_oracles_fail_on_a_wrong_v1_coefficient(capsys, monkeypatch, k1, index, step,
                                                             line):
    import cubichodge.oracles as oracles

    expand = oracles.v_zinv_expansion

    def wrong(params, m, order):
        got = expand(params, m, order)
        if params.k1 == k1:
            got[index] += step
        return got

    monkeypatch.setattr(oracles, "v_zinv_expansion", wrong)
    code, out, _ = run_cli(capsys, "verify", "--suite", "series-oracles")
    assert code == 1
    assert out.splitlines() == [f"FAIL series-oracles: {line}"]


def test_verify_series_oracles_fail_on_a_wrong_shifted_log_phi(capsys, monkeypatch):
    import cubichodge.oracles as oracles
    from cubichodge.phiseries import TSeries

    shifted = oracles.log_phi_shifted
    extra = JetPoly.monomial(1, (1, 0), {})
    monkeypatch.setattr(oracles, "log_phi_shifted",
                        lambda order, shift: shifted(order, shift) + TSeries(0, order, {(3,): extra}))
    code, out, _ = run_cli(capsys, "verify", "--suite", "series-oracles")
    assert code == 1
    assert out.splitlines() == ["FAIL series-oracles: xi oracle: P~(0,3) at xi^1: "
                                "JetPoly((5/16) - (1/8)*s1) != JetPoly((5/16) - (9/8)*s1)"]


def test_virasoro_cmd(capsys):
    code, out, _ = run_cli(capsys, "virasoro", "--k1", "2", "--k2", "1",
                           "--mmax", "2", "--degree", "2", "--index-bound", "7")
    assert code == 0
    assert "all commutators pass" in out


def test_hodge_json(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--genus", "1", "--tmax", "2",
                           "--dmax", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    table = {tuple(row["indices"]): row["coefficient"] for row in data["table"]}
    assert table[(1,)] == [{"coef": "1/24", "sigma": [0, 0], "jets": {}}]


def test_internal_assertion_exit_code(capsys, monkeypatch):
    import cubichodge.cli as cli
    from cubichodge.loop import LoopEquationError

    class Broken:
        def __init__(self, *a, **k):
            pass

        def compute(self, *a, **k):
            raise LoopEquationError("loop residual nonzero at genus 2")

        free_energy = compute

    monkeypatch.setattr(cli, "LoopSolver", Broken)
    code, out, err = run_cli(capsys, "compute", "--genus", "2")
    assert code == 1
    report = json.loads(err)
    assert report["type"] == "LoopEquationError"
    assert "residual" in report["error"]


def test_dump_ptable(tmp_path, capsys):
    path = str(tmp_path / "ptable.json")
    code, _, _ = run_cli(capsys, "compute", "--genus", "1", "--dump-ptable", path)
    assert code == 0
    data = json.load(open(path))
    assert "0,0" in data["ptilde"]


def test_dump_ptable_ignores_cache_state(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_cli(capsys, "compute", "--genus", "2", "--cache-dir", cache)[0] == 0
    dumps = []
    for name, extra in (("bare", []), ("first", ["--cache-dir", cache]),
                        ("second", ["--cache-dir", cache])):
        path = str(tmp_path / f"{name}.json")
        code, out, _ = run_cli(capsys, "compute", "--genus", "2", "--dump-ptable", path, *extra)
        assert code == 0 and out.strip() == H2_TEXT
        with open(path) as fh:
            dumps.append(fh.read())
    assert len(json.loads(dumps[0])["ptilde"]) == 11
    assert dumps[1] == dumps[0] and dumps[2] == dumps[0]


# sha256 of the `compute --genus 3 --dump-ptable` file, frozen before JetPoly
# dropped its jet cutoff; the file keeps its "cutoff" key at 3g + 2.
FROZEN_DUMP_PTABLE_G3_SHA256 = "507da39e52e13b300671c19947a03b9b7ff4fae4770312392c05c30ca733f438"


def test_frozen_dump_ptable_g3(tmp_path, capsys):
    import hashlib

    path = str(tmp_path / "ptable.json")
    assert run_cli(capsys, "compute", "--genus", "3", "--dump-ptable", path)[0] == 0
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == FROZEN_DUMP_PTABLE_G3_SHA256


# sha256 of the exact stdout of each JSON output, frozen while they were
# written by `json.dumps(..., indent=1)`; the writer that replaced it must
# keep every byte.
FROZEN_JSON_STDOUT_SHA256 = {
    "hodge --genus 3 --tmax 4 --dmax 6 --integrals --format json":
        "c8368bba4734cd6cd30d912194701f46c38f6ec2dfa0cff6176bbd3b41b9ca75",
    "hodge --genus 4 --tmax 4 --dmax 6 --integrals --format json":
        "5c130aea41220f83a6d9f2ca424a9d3aba927b015212c489a00eeec87ad1e621",
    "hodge --genus 5 --tmax 3 --dmax 5 --integrals --format json":
        "2f761e14c3d1caa1c084525efbacc697be7afd03baa05bae148654603973d64a",
    "rg --genus 4 --format json": "6a8a7416dd25c9a150dc73ceb2330a0c9ef39ba6d41fa05f46e4527708706f99",
    "compute --genus 3 --format json": "61315fb280d3a8cec01c57c3c8f6234cb1c5e43d98ed4beb237e1ad94da9f0f7",
    "compute --genus 1 --format json": "94b2167dea137499746e443e4e7fc6f863982ed1dc7dff11758edc326ca19e66",
}


@pytest.mark.parametrize("command", FROZEN_JSON_STDOUT_SHA256)
def test_frozen_json_stdout(capsys, command):
    import hashlib

    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_JSON_STDOUT_SHA256[command]


@pytest.mark.parametrize("genus,tmax,dmax,integrals", [
    (1, 3, 4, False), (1, 2, 0, True), (3, 4, 6, True), (3, 3, 0, False), (4, 4, 5, True)])
def test_hodge_json_is_json_dumps_of_the_rows(capsys, genus, tmax, dmax, integrals):
    # the JetPoly of each row is written in place; json.dumps writes its jet_json list
    from cubichodge.loop import LoopSolver
    from cubichodge.outputs import intersection_table
    from cubichodge.textform import jet_json

    argv = ["hodge", "--genus", str(genus), "--tmax", str(tmax), "--dmax", str(dmax),
            "--format", "json"] + (["--integrals"] if integrals else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    fe = LoopSolver(genus).free_energy(genus)
    rows = intersection_table(fe, tmax, dmax, normalized=integrals)
    data = [{"indices": list(idx), "coefficient": jet_json(c)} for idx, c in rows]
    assert out == json.dumps({"genus": genus, "table": data}, indent=1) + "\n"


@pytest.mark.parametrize("k,grading", [
    # its z0 term breaks the dimension constraint too, but drops out at t0 = 0
    (0, "has a z0 term"),
    # the dimension constraint holds, and z1 is 1 at t1 = 0: only the jet weight shows it
    (1, "jet weight 5, not 2g - 2 = 4")])
def test_hodge_exits_1_on_a_body_off_the_string_or_dilaton_grading(capsys, monkeypatch, h123,
                                                                    k, grading):
    import cubichodge.cli as cli
    from cubichodge.loop import FreeEnergy

    h3 = h123[2]
    exps, c = h3.body.items()[0]
    term = JetPoly.monomial(c, exps[:2], dict(enumerate(exps[2:])))
    broken = FreeEnergy(3, h3.body - term + term.mul_z(k))
    monkeypatch.setattr(cli.LoopSolver, "free_energy", lambda self, genus, cache_dir=None: broken)
    code, out, err = run_cli(capsys, "hodge", "--genus", "3", "--tmax", "3", "--dmax", "4",
                             "--integrals")
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["type"] == "AssertionError" and grading in report["error"]


def test_hodge_exits_1_on_a_table_off_the_dimension_constraint(capsys, monkeypatch, h123):
    import cubichodge.cli as cli
    from cubichodge.loop import FreeEnergy

    # z2 times H_2 has jet weight 4, not 2g - 2 = 2: every row misses the constraint
    broken = FreeEnergy(2, h123[1].body.mul_z(2))
    monkeypatch.setattr(cli.LoopSolver, "free_energy", lambda self, genus, cache_dir=None: broken)
    code, out, err = run_cli(capsys, "hodge", "--genus", "2", "--tmax", "2", "--dmax", "3")
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["type"] == "AssertionError" and "dimension constraint" in report["error"]
