"""The Virasoro commutator grid: [L_m, L_n] = (m - n) L_{m+n} checked on
every monomial of a basis, with each L_m treated as a linear map.

Within one grid call, OperatorImages builds one coefficient table per m and
memoises the image of each monomial it meets, numbered as met, as integer
coefficients over one common denominator.  The memo lives in that object
and is dropped with it; nothing is cached at module level.
virasoro.commutator_check on one sample is the reference the tests compare
the grid with.  The grid has its own module because the package compiles
every module at import, and the largest one sets the import's peak memory.
"""
from __future__ import annotations

import math

from .ratio import Q, QZERO
from .virasoro import FockPoly, RationalParams, TruncationViolation, _smono_set


class OperatorImages:
    """L_0..L_top as integer matrices on monomials numbered as they are met.

    Each L_m is read from a coefficient table built once: the shifts
    s_j -> s_{j-hm} weighted by b_{j-hm}, the x d/ds_{hm} term, and the
    unordered second-derivative pairs with their 1/2 and G-pairing weights.
    The image of L_m on monomial i is built on first use and kept as a flat
    tuple (j1, c1, j2, c2, ...) of integer coefficients over the common
    denominator `den`.  An instance serves one grid and is then dropped."""

    def __init__(self, params: RationalParams, k_cut: int, top: int):
        h, half = params.h, Q(1, 2)
        b = {k: params.b(k) for k in params.nstar_upto(k_cut)}
        s1, _ = params.sigma_values()
        tables = [({}, {})]
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
                key = (min(a, c), max(a, c))
                pairs[key] = pairs.get(key, QZERO) + w
            shifts = {j: j - h * m for j in b if j - h * m in b}
            tables.append((shifts, pairs))
        weights = [half, s1 / 24, *b.values()]
        weights += [w for _, pairs in tables for w in pairs.values()]
        self.den = den = math.lcm(*(w.denominator for w in weights))
        self.b = {k: int(q * den) for k, q in b.items()}
        self.l0 = (int(s1 / 24 * den), den // 2)
        self.tables = [(shifts, {ab: int(w * den) for ab, w in pairs.items() if w})
                       for shifts, pairs in tables]
        self.h = h
        self.ids: dict = {}
        self.keys: list = []
        self.memo = [{} for _ in range(top + 1)]

    def number(self, key) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def image(self, m: int, i: int) -> tuple:
        got = self.memo[m].get(i)
        if got is None:
            got = self.memo[m][i] = self._build(m, self.keys[i])
        return got

    def _build(self, m: int, key) -> tuple:
        xe, ee, smono = key
        out: dict = {}

        def add(k, c):
            out[k] = out.get(k, 0) + c

        if m == 0:
            diag, half = self.l0
            add(key, diag + sum(e * self.b[k] for k, e in smono))
            add((xe + 2, ee - 1, smono), half)
        else:
            shifts, pairs = self.tables[m]
            for i, (j, e) in enumerate(smono):
                base = _smono_set(smono, j, -1)
                if j in shifts:
                    k = shifts[j]
                    add((xe, ee, _smono_set(base, k, +1)), e * self.b[k])
                if j == self.h * m:
                    add((xe + 1, ee, base), e * self.den)
                for j2, e2 in smono[i:]:
                    w = pairs.get((j, j2))
                    count = e * (e - 1 if j2 == j else e2)
                    if w and count:
                        add((xe, ee + 1, _smono_set(base, j2, -1)), w * count)
        flat = []
        for k, c in out.items():
            if c:
                flat += (self.number(k), c)
        return tuple(flat)

    def compose_into(self, acc: dict, m: int, n: int, i: int, sign: int) -> None:
        """acc += sign * L_m L_n (monomial i), over den^2."""
        it = iter(self.image(n, i))
        for g, cg in zip(it, it):
            jt = iter(self.image(m, g))
            cg *= sign
            for t, c in zip(jt, jt):
                acc[t] = acc.get(t, 0) + cg * c


def commutator_grid(params: RationalParams, basis, mmax: int) -> dict:
    """commutator_check over a monomial basis for every m, n = 0..mmax.

    Returns {(m, n): None | first_term}: None where every basis monomial
    passes, else the first_term of the first one that fails.  The operators
    are memoised linear maps for this call only (OperatorImages).  Two cells
    need no work: [L_m, L_m] vanishes term by term, and the (n, m) residual
    is minus the (m, n) one, so it fails on the same monomial with the
    negated coefficient."""
    cells = [(m, n) for m in range(mmax + 1) for n in range(mmax + 1)]
    if not basis:
        return dict.fromkeys(cells)
    k_cut, h = basis[0].k_cut, params.h
    top = 2 * mmax - 1 if mmax else 0
    if h * top > k_cut:
        # commutator_check meets the indices in rising order: it trips on the
        # first one past the cut
        raise TruncationViolation(f"operator index h*m = {h * (k_cut // h + 1)} beyond k_cut")
    ops = OperatorImages(params, k_cut, top)
    samples = [(ops.number(key), c) for f in basis for key, c in f.terms.items()]
    if len(samples) != len(basis):
        raise ValueError("commutator_grid needs a basis of monomials")
    den = ops.den
    out = {}
    for m, n in cells:
        if m >= n:
            mirror = out.get((n, m))
            out[m, n] = mirror and (mirror[0], -mirror[1])
            continue
        for i, c in samples:
            acc: dict = {}
            ops.compose_into(acc, m, n, i, 1)
            ops.compose_into(acc, n, m, i, -1)
            it = iter(ops.image(m + n, i))
            for t, d in zip(it, it):
                acc[t] = acc.get(t, 0) + (n - m) * den * d
            if any(acc.values()):
                diff = {ops.keys[t]: Q(v, den * den) * c for t, v in acc.items()}
                out[m, n] = FockPoly(params, k_cut, diff).first_term()
                break
        else:
            out[m, n] = None
    return out
