"""Sparse-term arithmetic on packed keys, the core of JetPoly.

A term dict maps a monomial key to its coefficient.  A key is one Python int
built by signed Kronecker packing: slot i holds the exponent e_i times
2^(SLOT_BITS * i),

    key = sum_i e_i << (SLOT_BITS * i),    -SLOT_HALF < e_i < SLOT_HALF.

Packing is linear, so the key of a product term is the sum of its factors'
keys, and a negative exponent (z1 in a JetPoly) needs no offset.  It also
keeps order: the slots below slot j add up to less than half of
2^(SLOT_BITS * j) in size, so keys compare as their exponent tuples do,
read from the top slot down.

For every polynomial over Q[s1, s3], slots 0 and 1 hold the s1 and s3
exponents; the slots after them hold the jets z0, z1, ... (in a TSeries,
t0..tn take their slots).  A key has as many slots as it needs: `width`
reads from the keys how many are in use.  The functions `pack`, `unpack`,
`width`, `unit`, `exponent`, `two_slots`, `split` and `largest_exponent`
below are the only code that knows this layout.

A key is right only while every exponent stays inside its slot, and no
polynomial carries a record of its exponents.  The guard sits where
exponents enter or can grow without a size that fixes them: `pack` raises
OverflowError on an exponent past the slot, and so do the JetPoly
operations `*` and `**`, after one scan of their operands' keys
(`largest_exponent`), and `mul_z`, after one read of its slot per key;
none of them scans term pairs.  The loop equation is graded, so a solve's
exponents are fixed by its genus: LoopSolver, PTensorTable and TSeries
check their sizes when they are made, and the kernels below, with
`JetPoly.dot` and ThetaPoly and TSeries arithmetic, form keys unchecked.

The term-dict arithmetic (`add_into`, `mul_into`, `nonzero`) serves JetPoly
alone, which stores int numerators over one common denominator per
polynomial; a TSeries holds one JetPoly per degree, and every other
polynomial is a JetPoly.  `power` raises any ring value by squaring.
"""
from __future__ import annotations

import struct
from functools import cache

SLOT_BITS = 16
SLOT_HALF = 1 << (SLOT_BITS - 1)
_MASK = (1 << SLOT_BITS) - 1
_SLOT_CODE = "h"  # struct's code for one signed 16-bit (SLOT_BITS) slot


# -- the key layout -----------------------------------------------------------


def pack(exponents, start: int = 0) -> int:
    """The key of the exponents placed in slots start, start + 1, ...;
    OverflowError if one does not fit its slot."""
    key = 0
    for i, e in enumerate(exponents, start):
        if not -SLOT_HALF < e < SLOT_HALF:
            raise OverflowError(f"exponent {e} does not fit a {SLOT_BITS}-bit slot")
        key += e << (SLOT_BITS * i)
    return key


def unpack(key: int, n: int) -> tuple:
    """The exponents in slots 0..n-1 of key; ValueError if a later slot is used."""
    read, bias, size = _reader(n)
    try:
        # SLOT_HALF added to each slot makes it a nonnegative digit e + SLOT_HALF
        # with no borrow; flipping that bit again leaves e in two's complement
        return read(((key + bias) ^ bias).to_bytes(size, "little"))
    except OverflowError:
        raise ValueError(f"key uses slots beyond the first {n}") from None


@cache
def _reader(n: int):
    return struct.Struct(f"<{n}{_SLOT_CODE}").unpack, _bias(n - 1), n * SLOT_BITS // 8


def width(keys) -> int:
    """The number of slots up to the highest one that any of the keys uses."""
    if not keys:
        return 0
    # with top nonzero slot i, 2^(SLOT_BITS*i - 1) < |key| < 2^(SLOT_BITS*i + SLOT_BITS - 1)
    top = max(max(keys), -min(keys))
    return top.bit_length() // SLOT_BITS + 1 if top else 0


def unit(i: int) -> int:
    """The key of the single exponent 1 in slot i."""
    return 1 << (SLOT_BITS * i)


@cache
def _bias(i: int) -> int:
    # SLOT_HALF in each of slots 0..i: every lower slot turns nonnegative, so
    # no borrow reaches slot i
    return SLOT_HALF * ((unit(i + 1) - 1) // _MASK)


def exponent(key: int, i: int) -> int:
    """The exponent in slot i of key."""
    return (((key + _bias(i)) >> (SLOT_BITS * i)) & _MASK) - SLOT_HALF


def two_slots(terms) -> list:
    """(e_0, e_1, value) per item of the term dict, whose keys use slots 0
    and 1 alone."""
    b = SLOT_HALF
    return [(((k + b) & _MASK) - b, (k + b) >> SLOT_BITS, v) for k, v in terms.items()]


def split(key: int, n: int) -> tuple[int, int]:
    """(low, high): the key of slots 0..n-1 of key, and the key of its slots
    n, n+1, ... moved down to slots 0, 1, ...; key == low + (high << n slots)."""
    b = _bias(n - 1)
    low = ((key + b) & (unit(n) - 1)) - b
    return low, (key - low) >> (SLOT_BITS * n)


# -- the exponent scan -------------------------------------------------------------


def largest_exponent(terms) -> int:
    """max |e_i| over every slot of every key of the term dict."""
    top = 0
    for key in terms:
        while key:
            e = ((key + SLOT_HALF) & _MASK) - SLOT_HALF
            if e > top:
                top = e
            elif -e > top:
                top = -e
            key = (key - e) >> SLOT_BITS
    return top


# -- arithmetic on term dicts -------------------------------------------------------


def add_into(acc: dict, terms: dict, factor=1) -> dict:
    """acc += factor * terms in place, dropping terms that cancel; returns acc."""
    if factor == 0:
        return acc
    scale = factor != 1
    get = acc.get
    for k, v in terms.items():
        if scale:
            v = v * factor
        w = get(k)
        if w is None:
            acc[k] = v
        else:
            w = w + v
            if w:
                acc[k] = w
            else:
                del acc[k]
    return acc


def mul_into(acc: dict, a: dict, b: dict, scale: int = 1) -> dict:
    """acc += scale * a * b in place, one term pair at a time; returns acc.

    The smaller side is the outer loop, and each of its values is
    multiplied by `scale` once; neither operand is copied.  Callers run
    many products into one acc: `JetPoly.dot` every pair of a sum of
    products, each pair with its own scale to the common denominator.
    Coefficients that cancel stay behind as zeros: `nonzero` drops them
    once, after the last product into acc.  No key is checked: every sum
    ka + kb must keep each exponent inside its slot.
    """
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    for kb, vb in b.items():
        vb *= scale
        for ka, va in a.items():
            k = ka + kb
            w = get(k)
            acc[k] = va * vb if w is None else w + va * vb
    return acc


def nonzero(terms: dict) -> dict:
    """The terms with a nonzero coefficient."""
    return {k: v for k, v in terms.items() if v}


def power(base, n: int, one):
    """base ** n by repeated squaring; `one` is the unit of base's ring."""
    if n < 0:
        raise ValueError(f"negative power of a {type(base).__name__}")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result
