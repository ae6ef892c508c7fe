from math import comb, factorial

import pytest

from cubichodge.jets import JetPoly
from cubichodge.ptensors import BellTable, PTensorTable
from cubichodge.ratio import Q

N = 8
TABLE = BellTable(N)


def gen_function_coefficients(n_max):
    """Coefficients of y^n z^k in exp(z sum_j X_j y^j / j!), times n!.

    Brute-force expansion used as the independent oracle for the cached
    partial Bell polynomials; X_j is z_j."""
    # polynomials in the X slots are dicts exponent-tuple -> Q
    out = {(0, 0): {(0,) * n_max: Q(1)}}
    inner = {}  # coefficient of y^j: the monomial X_j
    for j in range(1, n_max + 1):
        key = [0] * n_max
        key[j - 1] = 1
        inner[j] = {tuple(key): Q(1, factorial(j))}
    # accumulate z^k / k! * (sum_j X_j y^j / j!)^k truncated at y^n_max
    power = {0: {(0,) * n_max: Q(1)}}  # y-degree -> poly
    for k in range(1, n_max + 1):
        nxt = {}
        for dy, poly in power.items():
            for j, mono in inner.items():
                if dy + j > n_max:
                    continue
                slot = nxt.setdefault(dy + j, {})
                for e1, c1 in poly.items():
                    for e2, c2 in mono.items():
                        key = tuple(a + b for a, b in zip(e1, e2))
                        slot[key] = slot.get(key, Q(0)) + c1 * c2
        power = nxt
        for dy, poly in power.items():
            tgt = out.setdefault((dy, k), {})
            for e, c in poly.items():
                tgt[e] = tgt.get(e, Q(0)) + c * Q(1, factorial(k))
    return out


GF = gen_function_coefficients(N)


def from_gf(n, k):
    """n! times the coefficient of y^n z^k, as a JetPoly in z1, z2, ..."""
    poly = GF.get((n, k), {})
    return JetPoly({(0, 0, 0) + e: c * factorial(n) for e, c in poly.items()})


class TestPartial:
    def test_b31_is_x3(self):
        assert TABLE.bell(3, 1) == JetPoly.z(3)

    def test_b32_is_3x1x2(self):
        assert TABLE.bell(3, 2) == JetPoly.z(1) * JetPoly.z(2) * 3

    @pytest.mark.parametrize("n", range(1, N + 1))
    def test_diagonal(self, n):
        assert TABLE.bell(n, n) == JetPoly.z(1, n)

    @pytest.mark.parametrize("n", range(N + 1))
    def test_generating_function(self, n):
        for k in range(n + 1):
            assert TABLE.bell(n, k) == from_gf(n, k), (n, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            TABLE.bell(2, 3)
        with pytest.raises(ValueError):
            TABLE.bell(N + 1, 0)


def bell_complete_all(n: int, xs, one):
    """Complete Bell values B_0..B_n at xs[0] = X_1, ... via the recurrence
    B_{m+1} = sum_i C(m, i) B_{m-i} X_{i+1}; equals the sum over k of the
    partial Bell polynomials evaluated at the same arguments."""
    values = [one]
    for m in range(n):
        acc = None
        for i in range(m + 1):
            term = values[m - i] * xs[i] * Q(comb(m, i))
            acc = term if acc is None else acc + term
        values.append(acc)
    return values


def bell_complete(n: int, xs, one):
    """Reference complete Bell value B_n, read off the recurrence."""
    return bell_complete_all(n, xs, one)[n]


def substitute(poly: JetPoly, xs, one):
    """Evaluate a Bell polynomial in z1, z2, ... at ring elements xs[0] = z1, ..."""
    total = None
    powers = {}
    for key, c in poly.items():
        assert key[:3] == (0, 0, 0)
        term = one * c
        for i, e in enumerate(key[3:]):
            if not e:
                continue
            p = powers.get((i, e))
            if p is None:
                p = xs[i] ** e
                powers[(i, e)] = p
            term = term * p
        total = term if total is None else total + term
    if total is None:
        return one * Q(0)
    return total


class TestComplete:
    def test_b0(self):
        assert bell_complete(0, [], JetPoly.one()) == JetPoly.one()

    def test_b1(self):
        x1 = JetPoly.monomial(1, (1, 0), {})
        assert bell_complete(1, [x1], JetPoly.one()) == x1

    def test_b2(self):
        x1, x2 = JetPoly.monomial(1, (1, 0), {}), JetPoly.monomial(1, (0, 1), {})
        assert bell_complete(2, [x1, x2], JetPoly.one()) == x1 * x1 + x2

    @pytest.mark.parametrize("n", range(N + 1))
    def test_matches_partial_sum(self, n):
        xs = [JetPoly.monomial(1, (i + 1, 1), {}) for i in range(max(n, 1))]
        via_rec = bell_complete(n, xs, JetPoly.one())
        via_sum = JetPoly.zero()
        for k in range(0 if n == 0 else 1, n + 1):
            via_sum = via_sum + substitute(TABLE.bell(n, k), xs, JetPoly.one())
        assert via_rec == via_sum


class TestFJet:
    FJ = PTensorTable(14)

    def test_f00(self):
        assert self.FJ.f(0, 0) == JetPoly.one()

    def test_delta_row(self):
        for i in range(1, 6):
            assert not self.FJ.f(i, 0)

    def test_f21_f22(self):
        assert self.FJ.f(2, 1) == JetPoly.z(2)
        assert self.FJ.f(2, 2) == JetPoly.z(1) ** 2

    def test_f32(self):
        expect = JetPoly.z(1) * JetPoly.z(2) * Q(3)
        assert self.FJ.f(3, 2) == expect

    def test_vanishing_above_diagonal(self):
        for i in range(6):
            assert not self.FJ.f(i, i + 1)

    @pytest.mark.parametrize("i", range(N + 1))
    def test_closed_form_agreement(self, i):
        for j in range(i + 1):
            assert self.FJ.f(i, j) == TABLE.bell(i, j)

    def test_rows_through_14_match_bell(self):
        # past SELFCHECK_TO: the solver reads f up to row 3g - 2 = 13 at genus 5
        table = BellTable(14)
        for i in range(15):
            for j in range(i + 1):
                assert self.FJ.f(i, j) == table.bell(i, j), (i, j)

    def test_doctored_bell_row_fails_the_self_check(self, monkeypatch):
        from cubichodge import ptensors

        rows = [list(row) for row in ptensors._selfcheck_rows()]
        rows[8][1] = rows[8][1] + JetPoly.one()
        monkeypatch.setattr(ptensors, "_selfcheck_rows", lambda: rows)
        with pytest.raises(AssertionError, match=r"f_\(8,j\)"):
            PTensorTable(8).f(8, 1)

    @pytest.mark.parametrize("n", [0, 6])
    def test_rows_past_the_table_raise(self, n):
        table = PTensorTable(n)
        with pytest.raises(ValueError, match=f"i <= {n}"):
            table.f(n + 1, 0)
        with pytest.raises(ValueError, match=f"i <= {n}"):
            table.f(-1, 0)

    def test_chain_rule_identity(self):
        from cubichodge.oracles import chain_rule_check

        ok, detail = chain_rule_check()
        assert ok, detail
