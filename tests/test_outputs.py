from math import factorial, gcd

import pytest

import cubichodge.jets as jets
import cubichodge.outputs as outputs
from cubichodge.jets import JetPoly
from cubichodge.loop import FreeEnergy
from cubichodge.outputs import (TSeries, dimension_check, faber_leading, first_flow_check,
                                h1_gap_check, hodge_expand, intersection_table, r_poly, v_jets,
                                v_series)
from cubichodge.phiseries import TruncationError
from cubichodge.ratio import Q
from cubichodge.sparse import largest_exponent, unpack, width

from golden import (FABER2_TEXT, FABER3_TEXT, R2_TEXT, R3_TEXT, parse_sigma, sigma_degrees,
                    sigma_part)
from test_phiseries import in_lowest_terms

from anchors import reference_tables


def riemann_check(i: int, order: int) -> bool:
    """dv/dt_i = (v^i / i!) dv/dt_0 on TSeries, exact to the given degree."""
    v = v_series(max(i, 1), order + 1)
    lhs = v.diff(i)
    rhs = v**i * v.diff(0) * Q(1, factorial(i))
    return (TSeries.graded(lhs.n_max, order, lhs.grades)
            == TSeries.graded(rhs.n_max, order, rhs.grades))


class TestVSeries:
    def test_only_t0(self):
        v = v_series(0, 5)
        assert v == TSeries.t(0, 0, 5)

    def test_t0t1_coefficient(self):
        v = v_series(2, 4)
        assert v.coefficient((1, 1, 0)) == JetPoly.one()

    def test_t0sq_t2_coefficient(self):
        v = v_series(2, 4)
        assert v.coefficient((2, 0, 1)) == JetPoly.const(Q(1, 2))

    @pytest.mark.parametrize("n_max,d_max", [(4, 10), (6, 12)])
    def test_defining_equation(self, n_max, d_max):
        # v = t_0 + sum_{i>=1} t_i v^i / i!, checked with TSeries arithmetic
        v = v_series(n_max, d_max)
        rhs = TSeries.t(0, n_max, d_max)
        p = TSeries.const(1, n_max, d_max)
        for i in range(1, n_max + 1):
            p = p * v
            rhs = rhs + TSeries.t(i, n_max, d_max) * p * Q(1, factorial(i))
        assert v == rhs

    @pytest.mark.parametrize("n_max,d_max", [(0, 5), (1, 6), (2, 4), (4, 16), (3, 18), (6, 12)])
    def test_bound_is_exact(self, n_max, d_max):
        # no t exponent passes its grade's degree, which the d_max guard rests on
        v = v_series(n_max, d_max)
        for d, grade in v.grades.items():
            assert largest_exponent(grade.terms) <= d, d
        assert in_lowest_terms(v)

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_riemann(self, i):
        assert riemann_check(i, 4)

    def test_diff_lowers_the_truncation(self):
        # the t1^3 coefficient of dv/dt0 comes from t0 t1^3 of v, past v_series(1, 3)
        dv = v_series(1, 3).diff(0)
        assert dv.d_max == 2
        assert dv == TSeries.graded(1, 2, v_series(1, 6).diff(0).grades)
        assert v_series(1, 6).diff(0).coefficient((0, 3)) == JetPoly.one()
        with pytest.raises(TruncationError):
            dv.coefficient((0, 3))


class TestVJets:
    @pytest.mark.parametrize("n_max,d_max,count", [
        (0, 0, 0), (0, 0, 3), (0, 5, 2), (1, 0, 1), (2, 0, 4), (1, 4, 6), (2, 3, 5),
        (3, 5, 7), (4, 6, 1), (4, 7, 3), (3, 2, 9), (4, 0, 0), (2, 6, 0)])
    def test_equals_differentiated_v(self, n_max, d_max, count):
        # count > n_max, d_max = 0 and n_max = 0 all occur
        jets = v_jets(n_max, d_max, count)
        ref = [TSeries.graded(j.n_max, d_max, j.grades)
               for j in t0_jets(v_series(n_max, d_max + count), count)]
        assert jets == ref
        assert all(j.d_max == d_max and j.n_max == n_max for j in jets)
        for j in jets:
            for d, grade in j.grades.items():
                assert largest_exponent(grade.terms) <= d

    def test_first_jet_starts_at_one(self):
        assert v_jets(3, 4, 2)[1].constant_term() == JetPoly.one()
        assert not v_jets(0, 4, 2)[2]


def naive_r_poly(fe):
    """R_g term by term in Fractions: z0 -> 0 and z_j -> (-1)^(j-1) (j-1)!."""
    acc = {}
    for key, c in fe.body.items():
        value = c
        for j, e in enumerate(key[2:]):
            if e:
                value *= (Q(0) if j == 0 else Q((-1) ** (j - 1) * factorial(j - 1))) ** e
        acc[key[:2]] = acc.get(key[:2], 0) + value
    return JetPoly(acc)


class TestGap:
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7])
    def test_matches_fraction_reference(self, energies_g7, g):
        got = r_poly(energies_g7[g - 1])
        assert got == naive_r_poly(energies_g7[g - 1])
        assert got.is_jet_free() and got.den > 0

    def test_r2(self, h123):
        assert r_poly(h123[1]) == parse_sigma(R2_TEXT)

    def test_r3(self, h123):
        assert r_poly(h123[2]) == parse_sigma(R3_TEXT)

    def test_r2_rational_point(self, h123):
        # K1 = 2, K2 = 1 specialization of the sigma values
        s1 = Q(1, 3) - Q(1, 2) - Q(1, 1)
        s3 = Q(2, 27) - Q(2, 8) - Q(2, 1)
        val = r_poly(h123[1]).evaluate(s1, s3)
        assert val.denominator > 0  # exact rational, no error

    def test_degree_bound(self, h123):
        for g in (2, 3):
            assert max(sigma_degrees(r_poly(h123[g - 1]))) <= 3 * g - 3

    def test_genus1_rejected(self, h123):
        with pytest.raises(ValueError):
            r_poly(h123[0])


class TestFaber:
    def test_g2(self):
        assert faber_leading(2) == parse_sigma(FABER2_TEXT)

    def test_g3(self):
        assert faber_leading(3) == parse_sigma(FABER3_TEXT)

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_degree(self, g):
        fl = faber_leading(g)
        assert sigma_degrees(fl) == {3 * g - 3}

    @pytest.mark.parametrize("g", [2, 3])
    def test_matches_top_of_rg(self, h123, g):
        rg = r_poly(h123[g - 1])
        assert sigma_part(rg, 3 * g - 3) == faber_leading(g)


class TestH1Gap:
    def test_pass(self, h123):
        assert h1_gap_check(h123[0])

    def test_log_coeff_mutation(self, h123):
        h1 = h123[0]
        fake = FreeEnergy(1, h1.body, log_z1_coeff=Q(1, 23))
        assert not h1_gap_check(fake)

    def test_sigma_mutation(self, h123):
        h1 = h123[0]
        body = JetPoly.monomial(Q(1, 25), (1, 0), {0: 1})
        fake = FreeEnergy(1, body, log_z1_coeff=Q(1, 24))
        assert not h1_gap_check(fake)


class TestHodgeTables:
    def test_g1_t0_t1(self, h123):
        series = hodge_expand(h123[0], 2, 3)
        assert series.coefficient((1, 0, 0)) == JetPoly.monomial(Q(1, 24), (1, 0), {})
        assert series.coefficient((0, 1, 0)) == JetPoly.const(Q(1, 24))

    def test_g2_constant(self, h123):
        series = hodge_expand(h123[1], 2, 2)
        expect = parse_sigma("(1/17280)*s1^3 - (1/34560)*s3")
        assert series.constant_term() == expect

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_dimension_check(self, h123, g):
        series = hodge_expand(h123[g - 1], 3, 4)
        ok, violation = dimension_check(g, series)
        assert ok, violation

    def test_dimension_check_mutation(self, h123):
        h2 = h123[1]
        bumped = h2.body.mul_z(2)  # shifts every term's z2 exponent
        fake = FreeEnergy(2, bumped)
        series = hodge_expand(fake, 2, 3)
        ok, (t_exponents, sigma, c) = dimension_check(2, series)
        assert not ok
        # the violation reports the rational coefficient, not a raw numerator
        assert isinstance(c, type(Q(1, 2))) and series.grades[sum(t_exponents)].den != 1
        assert c == dict(series.coefficient(t_exponents).items())[(*sigma, 0, 0)]

    def test_g1_t2_coefficient_vanishes(self, h123):
        series = hodge_expand(h123[0], 3, 4)
        assert not series.coefficient((0, 0, 1, 0))

    def test_normalized_table(self, h123):
        raw = dict(intersection_table(h123[0], 2, 3))
        normed = dict(intersection_table(h123[0], 2, 3, normalized=True))
        key = (1, 1)  # t1^2 monomial
        assert raw[key] == JetPoly.const(Q(1, 48))
        assert normed[key] == raw[key] * Q(2)


def t0_jets(v, count):
    """[v, dv/dt0, ..., d^count v/dt0^count] by repeated differentiation."""
    jets = [v]
    for _ in range(count):
        jets.append(jets[-1].diff(0))
    return jets


def naive_hodge_expand(fe, n_max, d_max):
    """Reference expansion: every body monomial multiplied out on its own,
    one full TSeries product per jet factor, no products shared."""
    pad = fe.max_jet_index()
    jets = [TSeries.graded(j.n_max, d_max, j.grades)
            for j in t0_jets(v_series(n_max, d_max + pad), pad)]
    if fe.genus == 1:
        return jets[1].log() * fe.log_z1_coeff + jets[0] * fe.body.sigma_coefficient({0: 1})
    acc = TSeries.zero(n_max, d_max)
    for key, c in fe.body.items():
        term = TSeries.const(JetPoly.monomial(c, key[:2], {}), n_max, d_max)
        for k, e in enumerate(key[2:]):
            if e:
                term = term * (jets[k] ** e if e > 0 else jets[k].recip() ** -e)
        acc = acc + term
    return acc


class TestSharedProducts:
    @pytest.mark.parametrize("g,n_max,d_max", [(1, 3, 5), (2, 4, 6), (3, 4, 6), (3, 2, 5)])
    def test_low_genus(self, h123, g, n_max, d_max):
        fe = h123[g - 1]
        assert hodge_expand(fe, n_max, d_max) == naive_hodge_expand(fe, n_max, d_max)

    @pytest.mark.parametrize("g,n_max,d_max", [(4, 4, 6), (5, 3, 5)])
    def test_above_genus3(self, energies_g6, g, n_max, d_max):
        fe = energies_g6[g - 1]
        assert hodge_expand(fe, n_max, d_max) == naive_hodge_expand(fe, n_max, d_max)

    @pytest.mark.parametrize("g,n_max,d_max", [(2, 4, 6), (3, 4, 6)])
    def test_bound_covers_every_slot(self, h123, g, n_max, d_max):
        series = hodge_expand(h123[g - 1], n_max, d_max)
        assert series.grades and in_lowest_terms(series)

    @pytest.mark.parametrize("g,d_max", [(2, 2), (2, 4), (3, 2), (3, 4)])
    def test_no_t_index_beyond_dimension_bound(self, h123, g, d_max):
        top = 3 * g - 3 + d_max
        series = hodge_expand(h123[g - 1], top + 3, d_max)
        assert all(not any(k[top + 1:]) for k in series.coefficients())


class TestStringDilatonRoute:
    """intersection_table expands H_g only at t0 = t1 = 0 and reads every
    tau_0 and tau_1 row off the string and dilaton equations; the reference
    route expands H_g in full (tests/anchors.py)."""

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_equals_reference_route(self, energies_g5, g):
        fe = energies_g5[g - 1]
        for n_max in range(7):
            for d_max in range(7):
                raw, brackets = reference_tables(fe, n_max, d_max)
                assert intersection_table(fe, n_max, d_max) == raw, (n_max, d_max)
                assert intersection_table(fe, n_max, d_max, normalized=True) == brackets, (n_max, d_max)

    def test_pruned_products(self, monkeypatch, energies_g5):
        # no product for a jet group whose lowest degrees add up past d_max,
        # none by a factor that is the series 1: 306 products before the pruning
        calls = []
        mul = TSeries.__mul__
        monkeypatch.setattr(TSeries, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        hodge_expand(energies_g5[4], 3, 5)
        assert len(calls) == 141
        del calls[:]
        for g, n_max, d_max in [(3, 4, 6), (4, 4, 6), (5, 3, 5)]:
            intersection_table(energies_g5[g - 1], n_max, d_max, normalized=True)
        assert len(calls) == 164

    def test_one_reduction_per_kept_factor_group(self, monkeypatch, energies_g5):
        # at t0 = t1 = 0 v' is 1, so a jet part of H_5 is kept when its product
        # of the other jets is nonzero at dmax 5, and its factor group is the
        # part without its z1 power; the sigma parts reduce once per group,
        # never for a pruned part: 271 jet parts, 73 kept, in 73 groups
        fe = energies_g5[4]
        jet_series = v_jets(3, 5, fe.max_jet_index(), origin=True)
        n = width(fe.body.terms)
        parts = {unpack(key, n)[2:] for key in fe.body.terms}

        def product(es):
            s = TSeries.const(1, 3, 5)
            for k, e in enumerate(es):
                if e and k != 1:
                    s = s * jet_series[k] ** e
            return s

        kept = [es for es in parts if product(es)]
        groups = {es[:1] + es[2:] for es in kept}
        assert (len(parts), len(kept), len(groups)) == (271, 73, 73)
        want = outputs._jet_products(fe.body, jet_series)
        reduced, inside = [], []
        make, sigma_parts = jets._make, JetPoly.sigma_parts
        monkeypatch.setattr(jets, "_make",
                            lambda nums, den: (inside and reduced.append(nums)) or make(nums, den))

        def spy(self, *args, **kwargs):
            inside.append(1)
            try:
                return sigma_parts(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(JetPoly, "sigma_parts", spy)
        assert outputs._jet_products(fe.body, jet_series) == want
        assert len(reduced) == len(groups)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_rows_run_on_int_numerators(self, monkeypatch, energies_g5, normalized):
        # the string and dilaton rows are summed and scaled as int numerators
        # over one denominator, with no JetPoly arithmetic; each base row is
        # reduced once as it is read off, and each row of the table once as
        # it is returned: 20 base rows, 85 rows
        fe = energies_g5[4]
        want = intersection_table(fe, 3, 5, normalized)
        base = outputs._origin_series(fe, 3, 5)
        n_base = len(base.coefficients())
        monkeypatch.setattr(outputs, "_origin_series", lambda *args: base)

        def forbidden(*args):
            raise AssertionError("JetPoly arithmetic in the string and dilaton rows")

        for name in ("sum", "dot", "_scaled", "__add__", "__mul__", "__truediv__"):
            monkeypatch.setattr(JetPoly, name, forbidden)
        made = []
        make = jets._make
        monkeypatch.setattr(jets, "_make", lambda nums, den: made.append(make(nums, den)) or made[-1])
        rows = intersection_table(fe, 3, 5, normalized)
        assert rows == want and (n_base, len(rows)) == (20, 85) and len(made) == n_base + len(rows)
        assert {id(c) for _, c in rows} == {id(p) for p in made[n_base:]}
        assert all(gcd(c.den, *c.terms.values()) == 1 for _, c in rows)

    def test_genus1_body_beyond_z0_raises(self, h123):
        fake = FreeEnergy(1, h123[0].body + JetPoly.z(2), log_z1_coeff=Q(1, 24))
        with pytest.raises(AssertionError, match="sigma polynomial times z0"):
            intersection_table(fake, 3, 4)


class TestFirstFlow:
    def test_holds_to_degree3(self, h123):
        assert first_flow_check(h123[0])

    def test_sigma_mutation_fails(self, h123):
        h1 = h123[0]
        body = JetPoly.monomial(Q(1, 25), (1, 0), {0: 1})
        fake = FreeEnergy(1, body, log_z1_coeff=Q(1, 24))
        assert not first_flow_check(fake)

    def test_log_mutation_fails(self, h123):
        h1 = h123[0]
        fake = FreeEnergy(1, h1.body, log_z1_coeff=Q(1, 23))
        assert not first_flow_check(fake)


# sha256 of the exact `hodge --integrals --format json` stdout for three
# tables above genus 3, frozen before v(t) was built from its closed form.
FROZEN_HODGE_SHA256 = {
    (4, 4, 6): "5c130aea41220f83a6d9f2ca424a9d3aba927b015212c489a00eeec87ad1e621",
    (5, 3, 5): "2f761e14c3d1caa1c084525efbacc697be7afd03baa05bae148654603973d64a",
    (6, 3, 5): "961209924722305f9caa2b94fd958e5cc6a1232f6766ab7f06c5de92fbb1a56e",
}

# sha256 of the raw (not normalised) `hodge --format json` stdout of genus 7
# at (tmax, dmax) = (3, 4), and of the coefficients of v_series(6, 12); both
# frozen while TSeries held one Fraction per term.
FROZEN_RAW_G7_SHA256 = "b35390023410078fa1fd5db7b9c81a301c9dd06fcdcf8b3be3fab7533874944e"
FROZEN_V_SERIES_SHA256 = "0c552b168cabd8201a0757a295f7073cc5278cd79f7980e22f4d5a84e16c1736"


def _table_sha256(g, rows):
    import hashlib
    import json

    from cubichodge.textform import jet_json

    data = [{"indices": list(idx), "coefficient": jet_json(c)} for idx, c in rows]
    text = json.dumps({"genus": g, "table": data}, indent=1) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_frozen_hodge_tables(energies_g6):
    got = {(g, tmax, dmax): _table_sha256(g, intersection_table(energies_g6[g - 1], tmax, dmax,
                                                                normalized=True))
           for g, tmax, dmax in FROZEN_HODGE_SHA256}
    assert got == FROZEN_HODGE_SHA256


def test_frozen_raw_table_g7(energies_g7):
    assert _table_sha256(7, intersection_table(energies_g7[6], 3, 4)) == FROZEN_RAW_G7_SHA256


def test_frozen_v_series():
    import hashlib
    import json

    from cubichodge.textform import jet_json

    data = sorted([list(k), jet_json(c)] for k, c in v_series(6, 12).coefficients().items())
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
    assert digest == FROZEN_V_SERIES_SHA256
