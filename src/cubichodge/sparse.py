"""Sparse-term arithmetic shared by every polynomial type.

A term dict maps an exponent tuple of ints to an exact rational coefficient;
the key of a product term is the entrywise sum of its factors' keys.  A
graded map {grade: term dict} holds a truncated series, one term dict per
grade.  SigmaPoly, JetPoly, ThetaPoly, ZInvSeries, TSeries and FockPoly
add, multiply and raise to powers through these free functions.
"""
from __future__ import annotations


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


def mul_into(acc: dict, a: dict, b: dict) -> dict:
    """acc += a * b in place, one term pair at a time; returns acc.

    Coefficients that cancel stay behind as zeros: `nonzero` drops them
    once, after the last product into acc.
    """
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    for kb, vb in b.items():
        for ka, va in a.items():
            k = tuple(map(int.__add__, ka, kb))
            w = get(k)
            acc[k] = va * vb if w is None else w + va * vb
    return acc


def nonzero(terms: dict) -> dict:
    """The terms with a nonzero coefficient."""
    return {k: v for k, v in terms.items() if v}


def add_graded(a: dict, b: dict) -> dict:
    """a + b over graded maps; grades that cancel are dropped."""
    out = {g: dict(t) for g, t in a.items()}
    for g, t in b.items():
        if not add_into(out.setdefault(g, {}), t):
            del out[g]
    return out


def mul_graded(a: dict, b: dict, top: int | None = None) -> dict:
    """a * b over graded maps, skipping grade pairs above top (None: none)."""
    out = {}
    for i, ta in a.items():
        for j, tb in b.items():
            g = i + j
            if top is None or g <= top:
                mul_into(out.setdefault(g, {}), ta, tb)
    out = {g: nonzero(t) for g, t in out.items()}
    return {g: t for g, t in out.items() if t}


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
