"""The truncated Fock space and the Virasoro commutator grid:
[L_m, L_n] = (m - n) L_{m+n} checked on every monomial of a basis, with
each L_m treated as a linear map.

A monomial x^a eps^(2e) prod s_k^(e_k) is named outside this module by
its key (a, e, ((k, e_k), ...)), sorted by k; monomial_basis lists the
keys, commutator_grid takes them and reports a failing term by one.

Inside one grid call a monomial is one packed int (OperatorImages.pack).
The s-exponents fill the low slots, one per index of N_* up to the
largest index of the basis, each slot as many bytes (1, 2, 4 or 8) as
the largest s-degree of the basis needs; the high part above them holds
a * R + e for a power of two R that leaves room for every eps^2 exponent
the grid can reach.  The s-part of a key is then `key & mask`, the key of
a product term is a sum of keys, and the high part, being on top, is
signed and unbounded: x gets no slot limit at all.

No L_m differentiates in x or eps; they only multiply by them.  So
L_m(x^a eps^(2e) S) = x^a eps^(2e) L_m(S), and the image of a monomial is
its s-part's image shifted by the monomial's high part.  OperatorImages
keeps each image as (delta, coefficient) pairs keyed by the s-part alone,
with integer coefficients over one common denominator, and built once
per call.  The commutator residual of a monomial is, likewise, that of
its s-part shifted, so each grid cell checks every s-part once: a basis
monomial whose s-part has already passed passes too.  Shifting keeps the
order of the keys (x first, then eps, then the s-part), so the lowest
residual term of the first failing monomial is its s-part's lowest term,
shifted.  The memo lives in the OperatorImages object and is dropped
with it; nothing is cached at module level.

A passing cell is decided on the s-parts of s-degree <= 2.  In the Weyl
algebra of the s_k and d/ds_k, with x and eps as parameters (no L_m
differentiates in them), every L_m has at most one s factor, and a term
with an s factor has exactly one derivative: the shifts s_{j-hm} d/ds_j,
x d/ds_{hm}, the eps^2 d^2/ds ds pairs, and L_0's b_k s_k d/ds_k and
constants.  The commutator of two such terms, written with every
derivative to the right, has at most two derivatives (the top orders
cancel), so R = [L_m, L_n] - (m - n) L_{m+n} is sum_beta c_beta d^beta
over multi-indices |beta| <= 2.  On the polynomials in s_k, k in a set K,
only the beta on K act, and R applied to s^beta is beta! c_beta plus the
c_gamma of the gamma below beta: so R kills every polynomial in those
s_k exactly when it kills every monomial of degree <= 2 in them.  No L_m
raises an index, so an image stays in the slots of the basis.  The
guard is a count: with n distinct indices in the basis' s-parts, the
basis must hold all 1 + n + n(n+1)/2 s-parts of degree <= 2 in them,
as every monomial_basis of degree >= 2 does.
The per-sample commutator_check in tests/test_virasoro.py is the reference
the tests compare the grid with.
"""
from __future__ import annotations

import math
import struct
from itertools import compress

from .ratio import Q, QZERO
from .virasoro import RationalParams

# struct's codes for an unsigned slot of 1, 2, 4 and 8 bytes
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class TruncationViolation(ValueError):
    """An operator or monomial would step outside the declared truncation."""


def monomial_basis(params: RationalParams, index_bound: int, degree: int) -> list:
    """The keys of all monomials of total degree <= degree in x and s_k,
    k <= index_bound, in the pre-order of the tree that multiplies by
    x, s_k1, s_k2, ... (k1 < k2 < ...), never by a variable before the
    last one used; each monomial is reached once."""
    ks = params.nstar_upto(index_bound)
    basis = []
    # (first variable allowed: 0 is x, i > 0 is s_ks[i-1], degree left, x exponent, smono)
    stack = [(0, degree, 0, ())]
    while stack:
        start, left, xe, smono = stack.pop()
        basis.append((xe, 0, smono))
        if not left:
            continue
        # pushed last to first, so the children are visited in variable order
        for i in range(len(ks), max(start, 1) - 1, -1):
            k = ks[i - 1]
            if smono and smono[-1][0] == k:
                child = smono[:-1] + ((k, smono[-1][1] + 1),)
            else:
                child = smono + ((k, 1),)
            stack.append((i, left - 1, xe, child))
        if start == 0:
            stack.append((0, left - 1, xe + 1, smono))
    return basis


class OperatorImages:
    """L_0..L_top on packed monomial keys, for the monomials of one basis.

    The key layout is fixed from the basis (see the module docstring); an
    image reached from a basis monomial stays inside it, since no L_m
    raises an s-degree, an s-index or an eps^2 exponent by more than the
    room left.  Each L_m is read from a coefficient table built once, per
    slot: the shift s_j -> s_{j-hm} weighted by b_{j-hm}, the x d/ds_{hm}
    term, and the unordered second-derivative pairs with their 1/2 and
    G-pairing weights.  The image of L_m on an s-part is built on first
    use and kept as a tuple of (delta, c) pairs: the term key is the
    monomial's key plus delta, its coefficient the integer c over the
    common denominator `den`.  An instance serves one grid and is then
    dropped."""

    def __init__(self, params: RationalParams, basis, k_cut: int, top: int):
        h, half = params.h, Q(1, 2)
        self.ks = ks = params.nstar_upto(max((k for _, _, sm in basis for k, _ in sm),
                                             default=-params.k2))
        sdeg = max((sum(e for _, e in sm) for _, _, sm in basis), default=0)
        size = next((w for w in _SLOT_CODES if sdeg < 1 << (8 * w)), None)
        if size is None:
            raise OverflowError(f"s-degree {sdeg} does not fit a 64-bit slot")
        self.nbytes = size * len(ks)
        self.read = struct.Struct(f"<{len(ks)}{_SLOT_CODES[size]}").unpack
        self.sbits = 8 * self.nbytes
        self.mask = (1 << self.sbits) - 1
        # L_0 lowers the eps^2 exponent by one and L_m (m > 0) raises it by
        # at most one, so two operators keep it within 2 of the basis'
        span = max((abs(ee) for _, ee, _ in basis), default=0) + 2
        self.ebits = span.bit_length() + 1
        unit = [1 << (8 * size * p) for p in range(len(ks))]
        slot = {k: p for p, k in enumerate(ks)}
        self.unit = dict(zip(ks, unit))
        x_unit, e_unit = 1 << (self.sbits + self.ebits), 1 << self.sbits

        b = {k: params.b(k) for k in params.nstar_upto(k_cut)}
        s1, _ = params.sigma_values()
        pair_tables = []
        weights = [half, s1 / 24, *b.values()]
        for m in range(1, top + 1):
            pairs = {}
            terms = [(h * ell, h * (m - ell), half) for ell in range(1, m)]
            for alpha in params.index_set_star():
                beta = params.k1 - alpha if alpha > 0 else -alpha - params.k2
                gv = params.gpair(alpha, beta)
                if gv and beta:
                    terms += [(alpha + h * ell, beta + h * (m - 1 - ell), half * gv)
                              for ell in range(m)]
            for a, c, w in terms:
                if a in slot and c in slot:
                    key = (min(slot[a], slot[c]), max(slot[a], slot[c]))
                    pairs[key] = pairs.get(key, QZERO) + w
            weights += pairs.values()
            pair_tables.append(pairs)
        self.den = den = math.lcm(*(w.denominator for w in weights))
        self.l0 = (int(s1 / 24 * den), 2 * x_unit - e_unit, den // 2,
                   [int(b[k] * den) for k in ks])
        self.tables = [None]
        for m, pairs in enumerate(pair_tables, 1):
            shifts = [(unit[slot[j - h * m]] - unit[p], int(b[j - h * m] * den))
                      if j - h * m in b else None for p, j in enumerate(ks)]
            x_slot = slot.get(h * m)
            x_term = None if x_slot is None else (x_slot, x_unit - unit[x_slot], den)
            pairs = {pq: (e_unit - unit[pq[0]] - unit[pq[1]], int(w * den))
                     for pq, w in pairs.items() if w}
            self.tables.append((shifts, x_term, pairs))
        self.memo = [{} for _ in range(top + 1)]

    def pack(self, key) -> int:
        """The packed int of a monomial key (a, e, ((k, e_k), ...))."""
        xe, ee, smono = key
        unit = self.unit
        return sum(e * unit[k] for k, e in smono) + ((xe << self.ebits) + ee << self.sbits)

    def unpack(self, key: int) -> tuple:
        """The monomial key (a, e, ((k, e_k), ...)) of a packed int."""
        es = self.read((key & self.mask).to_bytes(self.nbytes, "little"))
        high = (key >> self.sbits) + (1 << self.ebits - 1)
        ee = (high & (1 << self.ebits) - 1) - (1 << self.ebits - 1)
        return high >> self.ebits, ee, tuple((k, e) for k, e in zip(self.ks, es) if e)

    def image(self, m: int, s: int) -> tuple:
        """L_m on the s-part s, as the tuple of its (delta, c) pairs."""
        got = self.memo[m].get(s)
        if got is None:
            got = self.memo[m][s] = self._build(m, s)
        return got

    def _build(self, m: int, s: int) -> tuple:
        es = self.read(s.to_bytes(self.nbytes, "little"))
        if m == 0:
            diag, x2_over_eps, half, b = self.l0
            diag += sum(map(int.__mul__, es, b))
            return ((0, diag), (x2_over_eps, half)) if diag else ((x2_over_eps, half),)
        shifts, x_term, pairs = self.tables[m]
        live = list(compress(range(len(es)), es))
        out = []
        # distinct slots give distinct deltas, so no two terms share a key
        for i, p in enumerate(live):
            e = es[p]
            if shifts[p]:
                delta, w = shifts[p]
                out.append((delta, e * w))
            if x_term and p == x_term[0]:
                out.append((x_term[1], e * x_term[2]))
            for p2 in live[i:]:
                got = pairs.get((p, p2))
                if got:
                    count = e * (e - 1 if p2 == p else es[p2])
                    if count:
                        out.append((got[0], got[1] * count))
        return tuple(out)

    def residual(self, m: int, n: int, s: int) -> dict:
        """([L_m, L_n] - (m - n) L_{m+n}) on the s-part s, over den^2, as
        {delta: coefficient}: a monomial with s-part s has the residual
        terms key + delta."""
        acc: dict = {}
        mask, memo, image = self.mask, self.memo, self.image
        get = acc.get
        for a, b, sign in ((m, n, 1), (n, m, -1)):
            outer = memo[a]
            for d, c in image(b, s):
                t = (s + d) & mask
                jt = outer.get(t)
                if jt is None:
                    jt = image(a, t)
                c *= sign
                for d2, c2 in jt:
                    t = d + d2
                    acc[t] = get(t, 0) + c * c2
        scale = (n - m) * self.den
        for d, c in image(m + n, s):
            acc[d] = get(d, 0) + scale * c
        return acc


def commutator_grid(params: RationalParams, basis, mmax: int, k_cut: int) -> dict:
    """[L_m, L_n] - (m - n) L_{m+n} on every monomial key of a basis, in the
    Fock space truncated at s_{k_cut}, for every m, n = 0..mmax;
    tests/test_virasoro.py holds the per-sample reference.

    Returns {(m, n): None | (key, coefficient)}: None where every basis
    monomial passes, else the lowest term of the residual on the first one
    that fails.  The operators are memoised linear maps for this call only
    (OperatorImages), and each cell checks each s-part once.  Two cells
    need no work: [L_m, L_m] vanishes term by term, and the (n, m)
    residual is minus the (m, n) one, so it fails on the same monomial
    with the negated coefficient.

    When the basis holds every s-part of s-degree <= 2 in its indices (the
    guard of the module docstring), a cell whose residual vanishes on
    those s-parts passes on the whole basis, since the residual has at
    most two derivatives.  Each cell scans them first; a cell that fails
    there is scanned again over every s-part in basis order, so it
    reports the same first failure as without the shortcut.  That scan
    skips the s-parts that passed there and reuses the residual that
    failed, so no residual of a cell is formed twice."""
    for _, _, smono in basis:
        for k, e in smono:
            if not params.in_nstar(k):
                raise TruncationViolation(f"s_{k} index not in N_*")
            if k > k_cut:
                raise TruncationViolation(f"s_{k} beyond k_cut = {k_cut}")
            if e < 1:
                raise ValueError("monomial exponents must be positive")
    cells = [(m, n) for m in range(mmax + 1) for n in range(mmax + 1)]
    h = params.h
    top = 2 * mmax - 1 if mmax else 0
    if h * top > k_cut:
        # report the first operator index past the cut, as applying the
        # operators in rising order would (the tests' per-sample reference)
        raise TruncationViolation(f"operator index h*m = {h * (k_cut // h + 1)} beyond k_cut")
    ops = OperatorImages(params, basis, k_cut, top)
    # each s-part with the first basis monomial that carries it: a later
    # monomial with the same s-part passes or fails with it
    firsts: dict = {}
    low = []  # the s-parts of s-degree <= 2
    for key in basis:
        packed = ops.pack(key)
        s = packed & ops.mask
        if s not in firsts:
            firsts[s] = packed
            if sum(e for _, e in key[2]) <= 2:
                low.append(s)
    # the guard: all 1 + nk + nk(nk+1)/2 s-parts of s-degree <= 2 in the
    # basis' nk indices are there, and the basis holds more than those
    nk = len({k for _, _, smono in basis for k, _ in smono})
    decides = len(low) == 1 + nk + nk * (nk + 1) // 2 < len(firsts)
    den = ops.den
    out = {}
    for m, n in cells:
        if m >= n:
            mirror = out.get((n, m))
            out[m, n] = mirror and (mirror[0], -mirror[1])
            continue
        # the s-parts of degree <= 2 that pass, up to the first that fails:
        # the scan below skips the former and reuses the latter's residual
        passed, failed = (), {}
        if decides:
            for i, s in enumerate(low):
                acc = ops.residual(m, n, s)
                if any(acc.values()):
                    passed, failed = set(low[:i]), {s: acc}
                    break
            else:
                out[m, n] = None
                continue
        for s, packed in firsts.items():
            if s in passed:
                continue
            acc = failed.get(s) or ops.residual(m, n, s)
            if any(acc.values()):
                term, v = min((ops.unpack(packed + d), v) for d, v in acc.items() if v)
                out[m, n] = term, Q(v, den * den)
                break
        else:
            out[m, n] = None
    return out
