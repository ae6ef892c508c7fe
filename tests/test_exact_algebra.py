import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubichodge.jets import JetPoly
from cubichodge.linsolve import SolveError, TriangularSystem
from cubichodge.ratio import Q
from cubichodge.sparse import exponent, largest_exponent
from cubichodge.theta import ThetaPoly

from powertheta import PowerTheta


def z(k, power=1):
    return JetPoly.z(k, power)


def const(c):
    return JetPoly.const(c)


class TestRingOps:
    def test_difference_of_squares(self):
        assert (z(1) + z(2)) * (z(1) - z(2)) == z(1) ** 2 - z(2) ** 2

    def test_laurent_inverse(self):
        assert z(1, -1) * z(1) == const(1)

    def test_theta_square(self):
        t = PowerTheta.theta()
        sq = t * t
        assert sq.degree == 2
        assert sq.coeff(2) == const(1) and not sq.coeff(1) and not sq.coeff(0)

    def test_sigma_scalar(self):
        s = JetPoly.monomial(Q(2, 3), (1, 0), {})
        assert z(2) * s == JetPoly.monomial(Q(2, 3), (1, 0), {2: 1})


class TestDerive:
    def test_dz0(self):
        assert z(0).derive() == z(1)

    def test_dtheta(self):
        d = ThetaPoly.theta().derive()
        # z1 (Theta^2 - Theta): chain rule through Theta = 1/(1 - e^{z0}/mu)
        assert d.powers() == [const(0), -z(1), z(1)]
        assert PowerTheta.theta().derive() == PowerTheta(d.powers())

    def test_laurent_derivative(self):
        assert z(1, -1).derive() == -(z(2) * z(1, -2))

    def test_derive_has_no_jet_bound(self):
        assert z(40).derive() == z(41)

    def test_negative_jet_index_raises(self):
        # z_-1 would land in the s3 slot of the packed key
        for bad in (lambda: z(-1), lambda: z(2).partial(-1), lambda: z(2).mul_z(-2)):
            with pytest.raises(ValueError):
                bad()

    def test_leibniz_random(self):
        rng = random.Random(7)
        for _ in range(200):
            f = _random_theta(rng, PowerTheta)
            g = _random_theta(rng, PowerTheta)
            lhs = (f * g).derive()
            rhs = f.derive() * g + f * g.derive()
            assert lhs == rhs

    def test_scalar_commutes(self):
        s = JetPoly.monomial(1, (0, 1), {}) + JetPoly.const(Q(5, 7))
        f = _random_theta(random.Random(3))
        assert (f * s).derive() == f.derive() * s
        assert (f * s).xi_euler() == f.xi_euler() * s


class TestXiEuler:
    def test_theta(self):
        t = PowerTheta.theta().xi_euler()
        assert t.coeff(2) == const(1) and t.coeff(1) == const(-1)

    def test_constant(self):
        assert not PowerTheta([const(1)]).xi_euler()

    def test_theta_squared(self):
        t = PowerTheta.theta(2).xi_euler()
        assert t.coeff(3) == const(2) and t.coeff(2) == const(-2)


def pi(m, c=None):
    """c pi_m as a ThetaPoly; c defaults to 1."""
    return ThetaPoly([const(0)] * (m - 1) + [const(1) if c is None else c])


class TestStirlingBasis:
    def test_xi_euler_shifts(self):
        for m in range(1, 8):
            assert pi(m).xi_euler() == -pi(m + 1), m
        c = z(2) * z(1, -1) + const(Q(3, 5))
        assert pi(3, c).xi_euler() == pi(4, -c)

    def test_derive_theta(self):
        assert pi(1).derive() == pi(2, -z(1))

    def test_theta_cubed_powers(self):
        cubed = ThetaPoly([const(1), const(Q(-3, 2)), const(Q(1, 2))])
        assert cubed.powers() == [const(0), const(0), const(0), const(1)]

    def test_derivations_commute_with_powers(self):
        rng = random.Random(11)
        for _ in range(100):
            f = _random_theta(rng)
            assert PowerTheta.of(f.xi_euler()) == PowerTheta.of(f).xi_euler()
            assert PowerTheta.of(f.derive()) == PowerTheta.of(f).derive()


def _random_theta(rng, cls=ThetaPoly, deg=4, jet_top=6):
    coeffs = []
    for _ in range(rng.randint(1, deg + 1)):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            jets = {k: rng.randint(0, 2) for k in rng.sample(range(jet_top), 2)}
            jets[1] = rng.randint(-2, 2)
            p = JetPoly.monomial(Q(rng.randint(-5, 5)), (rng.randint(0, 1), rng.randint(0, 1)), jets)
            for key, v in p.items():
                terms[key] = terms.get(key, Q(0)) + v
        coeffs.append(JetPoly(terms))
    return cls(coeffs)


def column(*entries):
    """The Theta polynomial whose pi_m coefficient is entries[m-1]."""
    return ThetaPoly([e if isinstance(e, JetPoly) else const(e) for e in entries])


class TestSolve:
    """Columns are ThetaPolys: entry (m, i) is the pi_m coefficient of column i."""

    def test_identity(self):
        sys_ = TriangularSystem([column(1), column(0, 1)], column(z(2), z(3)))
        assert sys_.solve() == [z(2), z(3)]

    def test_monomial_back_substitution(self):
        # pi_1 row: z1 x0 + z1^2 x1, pi_2 row: z1^3 x1; solution (z2, 1)
        cols = [column(z(1)), column(z(1) ** 2, z(1) ** 3)]
        rhs = column(z(1) * z(2) + z(1) ** 2, z(1) ** 3)
        assert TriangularSystem(cols, rhs).solve() == [z(2), const(1)]

    def test_genus_one_system(self):
        # the 3 z1 / 2 diagonal produces the 1/(24 z1) gradient component
        cols = [column(1), column(z(1) * Q(-3, 2), z(1) * Q(3, 2))]
        s1 = JetPoly.monomial(1, (1, 0), {})
        rhs = column(s1 * Q(1, 24) + const(Q(-1, 16)), const(Q(1, 16)))
        sol = TriangularSystem(cols, rhs).solve()
        assert sol[0] == s1 * Q(1, 24)
        assert sol[1] == z(1, -1) * Q(1, 24)

    def test_zero_diagonal_rejected(self):
        # column 1 stops at pi_1: degree 1, so its diagonal entry (2, 1) is zero
        with pytest.raises(SolveError, match="column 1 has Theta degree 1, not 2") as exc:
            TriangularSystem([column(1), column(1)], column(z(1), z(1)))
        assert exc.value.row == 2
        with pytest.raises(SolveError, match="degree 0"):
            TriangularSystem([ThetaPoly.zero()], column(z(1)))

    def test_profile_violation_rejected(self):
        # column 0 reaches pi_2: an entry below the triangular profile
        with pytest.raises(SolveError, match="column 0 has Theta degree 2, not 1") as exc:
            TriangularSystem([column(1, 1), column(0, 1)], column(z(1), z(1)))
        assert exc.value.row == 1

    def test_non_unit_diagonal_rejected(self):
        # a monomial that is not c z1^k has no inverse in the jet ring: the
        # system is refused when it is built, naming the row
        with pytest.raises(SolveError, match=r"single monomial c z1\^k \(row 1\)") as exc:
            TriangularSystem([column(z(2) * z(3))], column(z(2)))
        assert exc.value.row == 1
        with pytest.raises(SolveError, match=r"single monomial c z1\^k \(row 2\)") as exc:
            TriangularSystem([column(1), column(z(1), z(2))], column(z(1), z(2)))
        assert exc.value.row == 2

    def test_constant_and_inverse_z1_diagonals(self):
        # diagonals -2 and (3/2) z1^-1 are units: each row is solved
        cols = [column(Q(-2)), column(z(2), z(1, -1) * Q(3, 2))]
        xs = [z(3) + const(Q(1, 2)), z(2) * z(1)]
        rhs = ThetaPoly.dot(zip(cols, xs))
        assert TriangularSystem(cols, rhs).solve() == xs

    def test_two_term_diagonal_rejected(self):
        d = z(2) + const(1)
        with pytest.raises(SolveError, match="single monomial") as exc:
            TriangularSystem([column(1), column(z(1), d)], column(z(1), d * z(3)))
        assert exc.value.row == 2


# -- fused sums of products ------------------------------------------------------

# keys (sa, sb, e0, e1, e2) from a small range, so products of
# different pairs land on the same monomial and cancel; the denominators
# differ between operands, so each pair's scale to the common one is not 1
dot_keys = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                     st.integers(-1, 1), st.integers(0, 1))
dot_coefs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2, 3, 4, 6]))
dot_jets = st.dictionaries(dot_keys, dot_coefs, max_size=4).map(JetPoly)
dot_pairs = st.lists(st.tuples(dot_jets, dot_jets), max_size=4)
dot_thetas = st.lists(dot_jets, max_size=3).map(ThetaPoly)


def ref_dot(pairs) -> dict:
    """sum a * b as {exponent tuple: Fraction}, every term pair expanded from
    items() and each key named as items() names it."""
    out = {}
    for a, b in pairs:
        for ka, va in a.items():
            for kb, vb in b.items():
                n = max(len(ka), len(kb))
                k = [x + y for x, y in zip(ka + (0,) * (n - len(ka)), kb + (0,) * (n - len(kb)))]
                while len(k) > 4 and not k[-1]:
                    k.pop()
                k = tuple(k)
                out[k] = out.get(k, Fraction(0)) + Fraction(va) * Fraction(vb)
    return {k: v for k, v in out.items() if v}


def assert_matches(got: JetPoly, ref: dict):
    assert dict(got.items()) == ref
    # lowest terms: the constructor's canonical form of the same rationals
    assert got == JetPoly(ref)


class TestDot:
    @given(dot_pairs)
    def test_matches_reference(self, pairs):
        assert_matches(JetPoly.dot(pairs), ref_dot(pairs))

    def test_each_side_scaled(self):
        # common denominator 12: the one-term left side takes the scale 4 in the
        # first pair, the one-term right side takes the scale 3 in the second
        a = JetPoly({(0, 0, 1, 0, 0): Fraction(1, 3)})
        b = JetPoly({(0, 0, 0, 1, 0): Fraction(1), (0, 0, 0, 0, 1): Fraction(2)})
        c = JetPoly({(1, 0, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0, 0): Fraction(1, 2)})
        d = JetPoly({(0, 0, 0, -1, 0): Fraction(1, 2)})
        pairs = [(a, b), (c, d)]
        got = JetPoly.dot(pairs)
        assert got.den == 12
        assert_matches(got, ref_dot(pairs))

    @given(dot_jets, dot_jets)
    def test_full_cancellation(self, a, b):
        got = JetPoly.dot(((a, b), (-a, b)))
        assert got == JetPoly.zero()
        assert not got.terms and got.den == 1

    @given(dot_jets, dot_pairs)
    def test_empty_and_zero_operands(self, a, pairs):
        zero = JetPoly.zero()
        assert JetPoly.dot([]) == zero and JetPoly.dot([]).den == 1
        padded = [(zero, a)] + pairs + [(a, zero)]
        assert_matches(JetPoly.dot(padded), ref_dot(pairs))

    @given(st.lists(st.tuples(dot_thetas, dot_jets), max_size=4))
    def test_theta_dot_matches_per_pair_sum(self, pairs):
        got = ThetaPoly.dot(pairs)
        top = max((tp.degree for tp, _ in pairs), default=0)
        assert got.degree <= top
        for m in range(1, top + 1):
            assert_matches(got.coeff(m), ref_dot([(tp.coeff(m), w) for tp, w in pairs]))


unit_coefs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 6))


class TestUnitDiagonals:
    """Back substitution multiplies by the inverse of a diagonal c z1^k."""

    @given(st.data())
    def test_solution_satisfies_the_system(self, data):
        n = data.draw(st.integers(1, 4))
        cols = []
        for i in range(n):
            c, k = data.draw(unit_coefs), data.draw(st.integers(0, 3))
            below = data.draw(st.lists(dot_jets, min_size=i, max_size=i))
            cols.append(ThetaPoly(below + [z(1, k) * c]))
        rhs = ThetaPoly(data.draw(st.lists(dot_jets, max_size=n)))
        xs = TriangularSystem(cols, rhs).solve()
        assert ThetaPoly.dot(zip(cols, xs)) == rhs

    def test_unit_inverse(self):
        for k in range(-3, 4):
            for c in (Q(-3, 2), Q(5)):
                u = z(1, k) * c
                assert u * u.unit_inverse() == const(1)
        s1 = JetPoly.monomial(1, (1, 0), {})
        for p in (s1, z(2), z(0) * z(1), z(1) + const(1), JetPoly.zero()):
            assert p.unit_inverse() is None


# wider exponents than dot_keys, z1 down to -4, for the passes that unpack
# every key
wide_keys = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3),
                      st.integers(-4, 3), st.integers(0, 3), st.integers(0, 2))
wide_jets = st.dictionaries(wide_keys, dot_coefs, max_size=6).map(JetPoly)


def ref_derive(p: JetPoly) -> dict:
    """derive(p) as {exponent tuple: Fraction}, term by term from items(),
    named as items() names a key."""
    out = {}
    for k, v in p.items():
        for s in range(2, len(k)):
            if k[s]:
                nk = list(k) + [0]
                nk[s] -= 1
                nk[s + 1] += 1
                while len(nk) > 4 and not nk[-1]:
                    nk.pop()
                out[tuple(nk)] = out.get(tuple(nk), Fraction(0)) + Fraction(v) * k[s]
    return out


def ref_merge(*parts) -> dict:
    out = {}
    for part in parts:
        for k, v in part.items():
            out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


class TestOnePass:
    """The single-accumulator and single-pass routes of the genus step."""

    @given(dot_jets, dot_pairs)
    def test_dot_with_derived(self, d, pairs):
        assert_matches(JetPoly.dot(pairs, d), ref_merge(ref_derive(d), ref_dot(pairs)))
        assert_matches(d.derive(), ref_merge(ref_derive(d)))

    @given(dot_thetas, st.lists(st.tuples(dot_thetas, dot_jets), max_size=3))
    def test_theta_derive_with_pairs(self, tp, pairs):
        # pi_m: the jets of its coefficient, -z1 times the pi_(m-1) one, the pairs
        got = tp.derive(pairs)
        top = max([tp.degree + 1] + [t.degree for t, _ in pairs])
        assert got.degree <= top
        minus_z1 = JetPoly({(0, 0, 0, 1): -1})
        for m in range(1, top + 1):
            ref = ref_merge(ref_derive(tp.coeff(m)), ref_dot(
                [(tp.coeff(m - 1), minus_z1)] + [(t.coeff(m), w) for t, w in pairs]))
            assert_matches(got.coeff(m), ref)
        assert got == tp.derive() + ThetaPoly.dot(pairs)

    @given(wide_jets, st.integers(0, 6))
    def test_partials_match_partial(self, p, n):
        got = p.partials(n)
        assert len(got) == n
        for i, q in enumerate(got):
            expect = p.partial(i)
            assert q.terms == expect.terms and q.den == expect.den, i

    def test_partials_bounds_by_hand(self):
        # z1^-3 z2^3: d/dz1 raises |e1| to 4, the largest exponent, which the
        # key scan of the `*` guard reads; d/dz2 lowers the unique top slot
        # z2^3 of the other term, leaving z1^2
        p = JetPoly({(0, 0, 0, -3, 3): Fraction(1, 2), (0, 0, 0, 2, 3): Fraction(1)})
        d0, d1, d2 = p.partials(3)
        assert not d0.terms and largest_exponent(d0.terms) == 0
        assert d1 == JetPoly({(0, 0, 0, -4, 3): Fraction(-3, 2), (0, 0, 0, 1, 3): 2})
        assert largest_exponent(d1.terms) == 4
        assert d2 == JetPoly({(0, 0, 0, -3, 2): Fraction(3, 2), (0, 0, 0, 2, 2): 3})
        assert largest_exponent(d2.terms) == 3
        q = JetPoly({(0, 0, 0, 1, 3): 1})
        assert largest_exponent(q.partials(3)[2].terms) == 2
        assert largest_exponent(p.terms) == 3

    def test_partials_bounds_tie_by_hand(self):
        # z1 z2^3 z3^3 and s1^2 z2^2 z3^2: two or three slots tie for the top
        # |exponent| of each term, so lowering one of them leaves the top
        p = JetPoly({(0, 0, 0, 1, 3, 3): Fraction(1, 3), (2, 0, 0, 0, 2, 2): Fraction(-1)})
        d2, d3 = p.partials(4)[2:]
        assert d2 == JetPoly({(0, 0, 0, 1, 2, 3): 1, (2, 0, 0, 0, 1, 2): -2})
        assert d3 == JetPoly({(0, 0, 0, 1, 3, 2): 1, (2, 0, 0, 0, 2, 1): -2})
        assert largest_exponent(d2.terms) == largest_exponent(d3.terms) == 3
        # no tie in z1 z2^3 z3^2: lowering the lone top z2^3 leaves 2
        q = JetPoly({(0, 0, 0, 1, 3, 2): 1})
        assert [largest_exponent(r.terms) for r in q.partials(4)[1:]] == [3, 2, 3]


_small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)


class TestEvaluate:
    @given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 4)), _small_fractions,
                           max_size=6),
           _small_fractions, _small_fractions)
    def test_matches_fraction_sum(self, coeffs, s1, s3):
        # the zero poly, zero coefficients and negative s1 are all drawn
        p = JetPoly({(a, b, 0, 0): c for (a, b), c in coeffs.items()})
        want = sum((c * s1**a * s3**b for (a, b), c in coeffs.items()), Fraction(0))
        assert p.evaluate(s1, s3) == want
        assert p.evaluate(s1, s3) == sum((c * s1**a * s3**b for (a, b, *_), c in p.items()),
                                         Fraction(0))

    def test_by_hand(self):
        p = JetPoly({(2, 0, 0, 0): Fraction(1, 3), (0, 1, 0, 0): Fraction(-1, 2), (0, 0, 0, 0): 5})
        assert p.evaluate(Fraction(-3, 2), 4) == Fraction(3, 4) - 2 + 5
        assert JetPoly().evaluate(Fraction(-1, 2), 3) == 0
        assert JetPoly.const(Fraction(7, 3)).evaluate(0, 0) == Fraction(7, 3)


class TestGroupedSums:
    """Sums whose int numerators feed further sums before one reduction."""

    @given(wide_jets, st.integers(1, 3))
    def test_sigma_parts_by_group(self, p, modulus):
        # group the jet parts by their z1 exponent mod `modulus`; residue 0 is dropped
        def residue(jets):
            return exponent(jets, 1) % modulus or None

        want = {}
        for jets, c in p.sigma_parts().items():
            r = residue(jets)
            if r is not None:
                want[r] = want.get(r, JetPoly.zero()) + c
        assert p.sigma_parts(group=residue) == want

    def test_recurrence_by_hand(self):
        # Fibonacci-like rows over two base rows with their own denominators:
        # value(n) = value(n - 1) + 2 value(n - 2), each returned row over its divisor
        base = {0: JetPoly.monomial(Q(1, 2), (1, 0), {}), 1: JetPoly.monomial(Q(1, 3), (0, 1), {})}
        value = dict(base)
        for n in range(2, 7):
            value[n] = value[n - 1] + value[n - 2] * 2
        wanted = {n: n + 1 for n in range(7)}
        got = JetPoly.recurrence(base, lambda n: [(n - 1, 1), (n - 2, 2)], wanted)
        assert got == {n: value[n] / (n + 1) for n in range(7)}

    def test_recurrence_drops_zero_rows(self):
        # row 2 cancels, row 3 has no lower rows, row 4 is a zero multiple
        base = {0: JetPoly.z(1, -1) * Q(3, 4), 1: JetPoly.z(1, -1) * Q(-3, 4)}
        lower = {2: [(0, 1), (1, 1)], 3: [], 4: [(0, 0)]}.get
        got = JetPoly.recurrence(base, lower, {0: 3, 2: 1, 3: 1, 4: 1})
        assert got == {0: JetPoly.z(1, -1) * Q(1, 4)} and got[0].den == 4
