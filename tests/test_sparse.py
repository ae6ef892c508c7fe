"""The sparse-term core against a naive Fraction reference kept here.

The reference works on exponent tuples; the kernel runs on packed keys made
and read back through `pack`/`unpack`.  Exponents come from a small range,
so random operands share monomials often and sums and products cancel, and
from values near the slot bound (two of them still add up inside a slot);
the middle slot, like z1 in a JetPoly, goes negative.  A scale factor may be
zero.
"""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubichodge.jets import JetPoly
from cubichodge.sparse import (SLOT_HALF, add_into, exponent, largest_exponent, mul_into, nonzero,
                               pack, power, split, unpack, width)

EDGE = SLOT_HALF // 2 - 1
small = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(-1, 1))
edge = st.tuples(*[st.sampled_from([-EDGE, -1, 0, 1, EDGE])] * 3)
keys = small | edge
coefs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero_coefs = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 3))
terms = st.dictionaries(keys, nonzero_coefs, max_size=6)


def packed(t: dict) -> dict:
    return {pack(k): v for k, v in t.items()}


def unpacked(t: dict, n: int = 3) -> dict:
    return {unpack(k, n): v for k, v in t.items()}


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


# -- the key layout -------------------------------------------------------------


@given(keys, keys)
def test_pack_roundtrip_and_linear(a, b):
    assert unpack(pack(a), 3) == a
    assert pack(a) + pack(b) == pack(tuple(x + y for x, y in zip(a, b)))
    for i, e in enumerate(a):
        assert exponent(pack(a), i) == e
    low, high = split(pack(a), 1)
    assert unpack(low, 1) == a[:1] and unpack(high, 2) == a[1:]


@given(st.lists(st.sampled_from([0, 1, -1, EDGE, -EDGE, SLOT_HALF - 1, 1 - SLOT_HALF]), max_size=5),
       keys)
def test_width(a, b):
    used = len(a)
    while used and not a[used - 1]:
        used -= 1
    assert width([pack(a)]) == used
    assert width([pack(a), pack(b), 0]) == max(used, width([pack(b)]))
    assert width([]) == 0 and width({0: 1}) == 0


slot_values = st.sampled_from([0, 1, -1, EDGE, -EDGE, SLOT_HALF - 1, 1 - SLOT_HALF])


@given(st.lists(slot_values, max_size=5))
def test_unpack_reads_n_slots(a):
    used = width([pack(a)])
    assert unpack(pack(a), len(a) + 2) == tuple(a) + (0, 0)
    assert unpack(pack(a), used) == tuple(a[:used])
    if used:
        with pytest.raises(ValueError):
            unpack(pack(a), used - 1)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[st.lists(slot_values, min_size=n,
                                                                  max_size=n)] * 2)))
def test_keys_order_as_exponents_from_the_top_slot(ab):
    a, b = ab
    assert (pack(a) < pack(b)) == (a[::-1] < b[::-1])


def test_pack_rejects_overflow():
    assert unpack(pack((SLOT_HALF - 1, 1 - SLOT_HALF)), 2) == (SLOT_HALF - 1, 1 - SLOT_HALF)
    for e in (SLOT_HALF, -SLOT_HALF):
        with pytest.raises(OverflowError):
            pack((0, e))
    with pytest.raises(ValueError):
        unpack(pack((1, 2, 3)), 2)


@given(terms)
def test_largest_exponent(t):
    assert largest_exponent(packed(t)) == max((abs(e) for k in t for e in k), default=0)
    # every slot of every key, negative ones and the slot edge included
    assert largest_exponent({pack((1, 1 - SLOT_HALF)): 1, pack((0, 0, 3)): 2}) == SLOT_HALF - 1


# -- term-dict arithmetic ----------------------------------------------------------


@given(terms, terms, coefs)
def test_add_into(a, b, factor):
    acc = packed(a)
    assert add_into(acc, packed(b), factor) is acc
    assert unpacked(acc) == ref_add(a, b, factor)


@given(terms, terms, terms, st.integers(-3, 6))
def test_mul_into(acc, a, b, scale):
    pa, pb = packed(a), packed(b)
    got = nonzero(mul_into(packed(acc), pa, pb, scale))
    assert unpacked(got) == ref_add(acc, ref_mul(a, b), scale)
    # the scale goes into each product, not into either operand
    assert pa == packed(a) and pb == packed(b)
    assert nonzero(mul_into({}, pa, pb)) == packed(ref_mul(a, b))


def test_mul_into_scale_from_the_larger_side():
    # JetPoly.dot over the common denominator 12 of the pairs (x/3 + y/3) * 2
    # and z/4: the first pair's scale 4 comes from the larger side's
    # denominator 3, and the one-term side, the outer loop, takes it
    larger = {pack((1, 0)): 1, pack((0, 1)): 1}
    smaller = {pack((0, 0, 1)): 2}
    for a, b in ((larger, smaller), (smaller, larger)):
        got = mul_into({pack((1, 0, 1)): -8}, a, b, 4)
        assert got == {pack((1, 0, 1)): 0, pack((0, 1, 1)): 8}
        assert nonzero(got) == {pack((0, 1, 1)): 8}
    assert larger == {pack((1, 0)): 1, pack((0, 1)): 1} and smaller == {pack((0, 0, 1)): 2}


@given(terms, terms)
def test_cancellation(a, b):
    assert add_into(packed(a), packed(a), -1) == {}
    neg_b = {k: -v for k, v in b.items()}
    assert nonzero(mul_into(mul_into({}, packed(a), packed(b)), packed(a), packed(neg_b))) == {}


def test_cross_terms_cancel():
    x, y = (1, 0), (0, 1)
    plus = packed({x: Fraction(1), y: Fraction(1)})
    minus = packed({x: Fraction(1), y: Fraction(-1)})
    assert unpacked(nonzero(mul_into({}, plus, minus)), 2) == {(2, 0): 1, (0, 2): -1}


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), nonzero_coefs, max_size=6),
       st.integers(0, 5))
def test_power(t, n):
    expect = {(0, 0): Fraction(1)}
    for _ in range(n):
        expect = ref_mul(expect, t)
    got = power(JetPoly(t), n, JetPoly.one())
    assert {k[:2]: c for k, c in got.items()} == expect


# -- JetPoly: int numerators over one denominator ------------------------------------

# keys (s1, s3, z0, z1, z2); only z1 may be negative
jet_keys = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.integers(-2, 2),
                     st.integers(0, 1)) | st.tuples(*[st.sampled_from([0, 1, EDGE])] * 3,
                                                    st.sampled_from([-EDGE, -1, 1, EDGE]),
                                                    st.sampled_from([0, EDGE]))
jet_terms = st.dictionaries(jet_keys, nonzero_coefs, max_size=6)


def jet_named(t: dict) -> dict:
    """t with each key named as JetPoly.items() names it: no trailing zero
    jet past (sa, sb, e0, e1)."""
    out = {}
    for k, v in t.items():
        while len(k) > 4 and not k[-1]:
            k = k[:-1]
        out[k] = v
    return out


@given(jet_terms)
def test_jet_roundtrip(t):
    p = JetPoly(t)
    assert dict(p.items()) == jet_named(t)
    assert all(isinstance(v, int) for v in p.terms.values())
    assert {unpack(k, 5): Fraction(v, p.den) for k, v in p.terms.items()} == t


@given(jet_terms, jet_terms)
def test_jet_canonical(a, b):
    p, q = JetPoly(a), JetPoly(b)
    for r in (p, q, p + q, p - q, p * Fraction(3, 4)):
        assert r.den > 0 and gcd(r.den, *r.terms.values()) == 1
    # equal values reached along different routes compare and hash equal
    for same in ((p + q) - q, (p * Fraction(6, 5)) / Fraction(6, 5), JetPoly.sum([q, p, -q])):
        assert same == p and hash(same) == hash(p)


@given(st.dictionaries(jet_keys.filter(lambda k: max(map(abs, k)) < EDGE), nonzero_coefs, max_size=5),
       jet_terms)
def test_jet_mul(a, b):
    got = JetPoly(a) * JetPoly(b)
    assert dict(got.items()) == jet_named(ref_mul(a, b))


def test_jet_overflow_raises():
    with pytest.raises(OverflowError):
        JetPoly.z(2, SLOT_HALF)
    with pytest.raises(OverflowError):
        JetPoly({(0, 0, 0, -SLOT_HALF, 0): 1})
    big = JetPoly.z(1, -EDGE - 1)
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        big.mul_z(1, -EDGE - 1)
    with pytest.raises(OverflowError):
        JetPoly.z(2, SLOT_HALF - 1).mul_z(2)


def test_mul_guard_scans_the_operands():
    """`*` raises once the largest exponents of its two sides add up to
    SLOT_HALF; one below, the product is exact.  The unguarded dot kernel
    would let the slot wrap into the next one."""
    half = SLOT_HALF // 2
    a = JetPoly.z(2, half) + JetPoly.z(1, -3)
    got = a * JetPoly.z(2, half - 1)
    assert dict(got.items()) == {(0, 0, 0, 0, SLOT_HALF - 1): 1, (0, 0, 0, -3, half - 1): 1}
    with pytest.raises(OverflowError):
        a * JetPoly.z(2, half)
    with pytest.raises(OverflowError):
        JetPoly.z(1, -half) * JetPoly.z(3, half)
    assert dict(JetPoly.dot([(a, JetPoly.z(2, half))]).items())[(0, 0, 0, 0, -SLOT_HALF, 1)] == 1


def test_pow_guard_is_the_mul_guard():
    """Each product of the squaring in `**` is a guarded `*`: a power whose
    exponent would reach SLOT_HALF raises, one below it is exact."""
    n = (SLOT_HALF - 1) // 100
    assert (JetPoly.z(2, 100) ** n).items() == [((0, 0, 0, 0, 100 * n), 1)]
    with pytest.raises(OverflowError):
        JetPoly.z(2, 100) ** (n + 1)
    with pytest.raises(OverflowError):
        (JetPoly.z(1, -100) + JetPoly.one()) ** (n + 1)


def test_mul_z_guard_reads_its_slot():
    """mul_z reads the slot it shifts from every key: another slot at the
    edge does not stop it, its own slot reaching SLOT_HALF does."""
    p = JetPoly.z(2, SLOT_HALF - 2) + JetPoly.z(1, 1 - SLOT_HALF)
    assert dict(p.mul_z(2).items()) == {(0, 0, 0, 0, SLOT_HALF - 1): 1,
                                         (0, 0, 0, 1 - SLOT_HALF, 1): 1}
    assert dict(p.mul_z(1).items()) == {(0, 0, 0, 1, SLOT_HALF - 2): 1, (0, 0, 0, 2 - SLOT_HALF): 1}
    for k, power in ((2, 2), (1, -1), (0, SLOT_HALF)):
        with pytest.raises(OverflowError):
            p.mul_z(k, power)
    with pytest.raises(ValueError, match="only z1"):
        p.mul_z(2, -1)
