"""The sparse-term core against a naive Fraction reference kept here.

Keys are short int tuples over a small range, so random operands share
monomials often and sums and products cancel; a scale factor may be zero.
"""
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cubichodge.sigma import SigmaPoly
from cubichodge.sparse import add_graded, add_into, mul_graded, mul_into, nonzero, power

keys = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(-1, 1))
coefs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero_coefs = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 3))
terms = st.dictionaries(keys, nonzero_coefs, max_size=6)
graded = st.dictionaries(st.integers(-2, 4), st.dictionaries(keys, nonzero_coefs, min_size=1, max_size=6),
                         max_size=4)


def ref_add(a: dict, b: dict, factor=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + factor * v
    return {k: v for k, v in out.items() if v != 0}


def ref_mul(a: dict, b: dict) -> dict:
    """Every term pair expanded, then equal keys summed."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def flatten(g: dict) -> dict:
    return {(d,) + k: v for d, t in g.items() for k, v in t.items()}


def regroup(flat: dict, top=None) -> dict:
    out = {}
    for k, v in flat.items():
        if top is None or k[0] <= top:
            out.setdefault(k[0], {})[k[1:]] = v
    return out


@given(terms, terms, coefs)
def test_add_into(a, b, factor):
    acc = dict(a)
    assert add_into(acc, b, factor) is acc
    assert acc == ref_add(a, b, factor)


@given(terms, terms, terms)
def test_mul_into(acc, a, b):
    got = nonzero(mul_into(dict(acc), a, b))
    assert got == ref_add(acc, ref_mul(a, b))


@given(terms, terms)
def test_cancellation(a, b):
    assert add_into(dict(a), a, -1) == {}
    neg_b = {k: -v for k, v in b.items()}
    assert nonzero(mul_into(mul_into({}, a, b), a, neg_b)) == {}


def test_cross_terms_cancel():
    x, y = (1, 0), (0, 1)
    plus = {x: Fraction(1), y: Fraction(1)}
    minus = {x: Fraction(1), y: Fraction(-1)}
    assert nonzero(mul_into({}, plus, minus)) == {(2, 0): 1, (0, 2): -1}


@given(graded, graded)
def test_add_graded(a, b):
    assert add_graded(a, b) == regroup(ref_add(flatten(a), flatten(b)))


@given(graded, graded, st.one_of(st.none(), st.integers(-4, 8)))
def test_mul_graded(a, b, top):
    full = ref_mul(flatten(a), flatten(b))
    assert mul_graded(a, b, top) == regroup(full, top)


@given(terms.map(lambda t: {k[:2]: v for k, v in t.items() if k[0] >= 0}), st.integers(0, 5))
def test_power(t, n):
    expect = {(0, 0): Fraction(1)}
    for _ in range(n):
        expect = ref_mul(expect, t)
    assert power(SigmaPoly(t), n, SigmaPoly.one()).terms == expect
