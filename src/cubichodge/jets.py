"""Sparse Laurent polynomials in the jet variables z0, z1, z2, ... over Q[s1, s3].

A JetPoly lives in Q[s1, s3][z0][z1^(+-1)][z2, z3, ...], the infinite jet
ring: a polynomial is its terms alone, and each term uses only the jets it
carries.  A polynomial over Q[s1, s3] alone is a JetPoly without jets; the
places that need one (a TSeries coefficient, `evaluate`) check that it
carries none.  Each term is keyed by one packed int (see sparse.py) whose slots
hold the exponents

    (sa, sb, e0, e1, ..., ek)

of s1, s3, z0, ..., zk; only e1 (the z1 slot) may be negative.  Multiplying
two monomials is one integer addition.  Coefficients are int numerators in
`terms` over one positive denominator `den`, in lowest terms (the gcd of den
and every numerator is 1), so equal polynomials compare and hash equal.
`items` and the constructor speak exponent tuples and rationals; `items`
names each term by (sa, sb, e0, e1) and the jets up to its own highest one.

Products are summed, not formed one by one: `JetPoly.dot` takes a sum of
products a * b over the common denominator of every a.den * b.den, runs each
pair into one accumulator, and reduces once; it can add the derivative of one
more polynomial into the same accumulator.  No operand is copied: a pair's
scale to the common denominator multiplies each term of its smaller side as
the product runs (`sparse.mul_into`); zeros are dropped only when a
coefficient cancelled.  `dot` checks no key: its callers keep every exponent
inside the slot, as the size guards of LoopSolver, PTensorTable and TSeries
do for every caller in this package.  `a * b` is its one-pair case, guarded
by one scan of each side's keys, and `derive()` its case without pairs;
`JetPoly.sum` adds polynomials that are already formed, each under an int
weight if given.  Sums that feed further sums stay int numerators until
their result is read: `JetPoly.recurrence` forms rows that are int-weighted
sums of other rows over one denominator, and `sigma_parts(group=...)` sums
the jet parts of one group; each reduces once per result.
"""
from __future__ import annotations

from itertools import compress, repeat
from math import gcd, lcm

from .ratio import Q, is_rational
from .sparse import (SLOT_BITS, SLOT_HALF, add_into, exponent, largest_exponent, mul_into, nonzero,
                     pack, power, split, unit, unpack, width)


def _raw(terms: dict, den: int) -> JetPoly:
    p = JetPoly.__new__(JetPoly)
    p.terms = terms
    p.den = den
    return p


def _make(nums: dict, den: int) -> JetPoly:
    """A JetPoly from nonzero int numerators over den > 0, put in lowest terms."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: v // g for k, v in nums.items()}
            den //= g
    return _raw(nums, den)


class JetPoly:
    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        """`terms` maps exponent tuples (sa, sb, e0, e1, ...) to rationals."""
        fracs = {}
        for k, v in (terms or {}).items():
            _check_signs(k[:2], dict(enumerate(k[2:])))
            if v != 0:
                fracs[pack(k)] = Q(v)
        # over the lcm of the reduced denominators the numerators are coprime to it
        self.den = lcm(*(q.denominator for q in fracs.values()))
        self.terms = {k: q.numerator * (self.den // q.denominator) for k, q in fracs.items()}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "JetPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "JetPoly":
        return cls.monomial(c, (0, 0), {})

    @classmethod
    def one(cls) -> "JetPoly":
        return cls.const(1)

    packed = staticmethod(_make)  # nonzero int numerators on packed keys over den > 0

    @classmethod
    def z(cls, k: int, power: int = 1) -> "JetPoly":
        return cls.monomial(1, (0, 0), {k: power})

    @classmethod
    def monomial(cls, c, sigma, jets) -> "JetPoly":
        """Single term c * s1^sigma[0] * s3^sigma[1] * prod zk^jets[k]."""
        for k in jets:
            _check_index(k)
        _check_signs(sigma, jets)
        c = Q(c)
        if c == 0:
            return cls()
        key = pack(sigma) + sum(pack((e,), 2 + k) for k, e in jets.items())
        return _raw({key: c.numerator}, c.denominator)

    @classmethod
    def sum(cls, polys, weights=None) -> "JetPoly":
        """The sum of the polys, accumulated once over their common
        denominator; with int `weights`, the sum of w * p over the polys p
        and the weights w, each w folded into p's scale to that denominator."""
        pairs = [(p, w) for p, w in zip(polys, repeat(1) if weights is None else weights)
                 if w and p.terms]
        if not pairs:
            return cls()
        if len(pairs) == 1 and weights is None:
            return pairs[0][0]
        den = lcm(*(p.den for p, _ in pairs))
        acc = {}
        for p, w in pairs:
            add_into(acc, p.terms, den // p.den * w)
        return _make(acc, den)

    @classmethod
    def dot(cls, pairs, derived=None) -> "JetPoly":
        """sum a * b over the (a, b) pairs, plus derive(derived) when one is
        given, accumulated once over their common denominator; no product and
        no derivative is formed on its own, and no operand is copied: each
        pair's scale den // (a.den * b.den) is applied per term of its
        smaller side.  No key is checked: each exponent of a * b, and each
        one derive raises by one, must stay inside its slot."""
        live = [(a, b, a.den * b.den) for a, b in pairs if a.terms and b.terms]
        dens = [d for _, _, d in live] + ([derived.den] if derived else [])
        if not dens:
            return cls()
        den = lcm(*dens)
        acc = {}
        if derived:
            n = width(derived.terms)
            slots = range(2, n)
            steps = [unit(i + 1) - unit(i) for i in range(n)]
            factor = den // derived.den
            get = acc.get
            for key, c in derived.terms.items():
                es = unpack(key, n)
                c *= factor
                # only the jets a term carries: most of its slots are zero
                for i in compress(slots, es[2:]):
                    e = es[i]
                    nk = key + steps[i]
                    w = get(nk)
                    acc[nk] = c * e if w is None else w + c * e
        for a, b, d in live:
            mul_into(acc, a.terms, b.terms, den // d)
        if 0 in acc.values():
            acc = nonzero(acc)
        return _make(acc, den)

    @classmethod
    def recurrence(cls, base: dict, lower, wanted: dict) -> dict:
        """{r: value(r) / wanted[r]} over the rows r of `wanted` whose value
        is nonzero, each wanted[r] an int > 0.  A row's value is base[r] for
        a key of `base`, a JetPoly, and otherwise the sum of w * value(s)
        over the (s, int w) pairs of lower(r).  Each value is formed once,
        as int numerators over the lcm of the base denominators, and each
        row returned is reduced once."""
        den = lcm(*(p.den for p in base.values()))
        known = {r: {k: v * (den // p.den) for k, v in p.terms.items()} for r, p in base.items()}

        def value(r):
            got = known.get(r)
            if got is None:
                got = {}
                for s, w in lower(r):
                    add_into(got, value(s), w)
                known[r] = got
            return got

        out = {}
        for r, d in wanted.items():
            nums = value(r)
            if nums:
                out[r] = _make(nums, den * d)
        del value  # a recursive closure is a reference cycle: break it
        return out

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, JetPoly):
            return NotImplemented
        return JetPoly.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, JetPoly):
            return NotImplemented
        return JetPoly.sum((self, -other))

    def __neg__(self):
        return _raw({k: -v for k, v in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, JetPoly):
            # a term pair's exponents add, so the sides' largest ones bound the
            # product's: pack raises OverflowError if their sum leaves the slot
            pack((largest_exponent(self.terms) + largest_exponent(other.terms),))
            return JetPoly.dot(((self, other),))
        if is_rational(other):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, q):
        if not is_rational(q):
            return NotImplemented
        if q == 0:
            raise ZeroDivisionError("JetPoly division by zero")
        n, d = q.denominator, q.numerator
        return self._scaled(-n, -d) if d < 0 else self._scaled(n, d)

    def _scaled(self, n: int, d: int) -> "JetPoly":
        """self * n / d for d > 0."""
        if n == 0:
            return JetPoly()
        return _make({k: v * n for k, v in self.terms.items()}, self.den * d)

    def __pow__(self, n: int):
        # each product of the squaring is a guarded `*`
        return power(self, n, JetPoly.one())

    def __eq__(self, other):
        if not isinstance(other, JetPoly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    # -- calculus -------------------------------------------------------

    def derive(self) -> "JetPoly":
        """The derivation sum_k z_{k+1} d/dz_k on the jet variables; like
        `dot`, it checks no key."""
        return JetPoly.dot((), self)

    def partial(self, k: int) -> "JetPoly":
        """d/dz_k; it checks no key, and lowers a z1^-e to z1^-(e+1)."""
        _check_index(k)
        i = 2 + k
        u = unit(i)
        out = {}
        for key, c in self.terms.items():
            e = exponent(key, i)
            if e:
                out[key - u] = c * e
        return _make(out, self.den)

    def partials(self, n: int) -> list:
        """[partial(0), ..., partial(n-1)] in one pass over the terms, one
        unpack per key."""
        w = width(self.terms)
        slots = range(2, min(w, n + 2))
        units = [unit(i) for i in range(w)]
        outs = [{} for _ in range(n)]
        for key, c in self.terms.items():
            es = unpack(key, w)
            for i in compress(slots, es[2:]):
                outs[i - 2][key - units[i]] = c * es[i]
        return [_make(out, self.den) for out in outs]

    def mul_z(self, k: int, power: int = 1) -> "JetPoly":
        """Fast multiply by z_k^power; OverflowError if an exponent of z_k
        would leave its slot, read from each key once."""
        _check_index(k)
        i = 2 + k
        for key in self.terms:
            e = exponent(key, i) + power
            if e < 0 and k != 1:
                raise ValueError("only z1 may carry a negative exponent")
            if not -SLOT_HALF < e < SLOT_HALF:
                raise OverflowError(f"z{k}^{e} does not fit a {SLOT_BITS}-bit slot")
        shift = power * unit(i)
        return _raw({key + shift: c for key, c in self.terms.items()}, self.den)

    # -- views and queries -----------------------------------------------

    def items(self):
        """(exponent tuple, rational coefficient) per term; the tuple is
        (sa, sb, e0, e1, ..., ek) with zk the term's highest jet, or
        (sa, sb, e0, e1) when it has none above z1."""
        den = self.den
        return [(unpack(k, max(4, width((k,)))), Q(v, den)) for k, v in self.terms.items()]

    def max_index(self) -> int:
        """Highest k with z_k actually present; -1 when jet-free."""
        return max(width(self.terms), 2) - 3

    def is_jet_free(self) -> bool:
        return width(self.terms) <= 2

    def evaluate(self, s1, s3):
        """The exact value at rational (s1, s3), summed as ints over
        den q1^A q3^B, with s1 = p1/q1, s3 = p3/q3 and A, B the top
        exponents, and divided once; ValueError if a jet is left."""
        if not self.is_jet_free():
            raise ValueError("evaluate takes a polynomial without jets")
        (p1, q1), (p3, q3) = ((q.numerator, q.denominator) for q in (Q(s1), Q(s3)))
        exps = [(unpack(key, 2), v) for key, v in self.terms.items()]
        top_a = max((a for (a, _), _ in exps), default=0)
        top_b = max((b for (_, b), _ in exps), default=0)
        u = [p1**a * q1**(top_a - a) for a in range(top_a + 1)]
        w = [p3**b * q3**(top_b - b) for b in range(top_b + 1)]
        total = sum(v * u[a] * w[b] for (a, b), v in exps)
        return Q(total, self.den * q1**top_a * q3**top_b)

    def sigma_coefficient(self, jets) -> "JetPoly":
        """Coefficient of the jet monomial given as {k: exponent}: a JetPoly
        without jets."""
        want = pack([jets.get(k, 0) for k in range(max(jets, default=-1) + 1)])
        return self.sigma_parts().get(want, JetPoly())

    def sigma_parts(self, scale=None, group=None) -> dict:
        """{jet part: its coefficient, a JetPoly without jets} over the jet
        parts of the terms; a jet part is the packed key of (e0, e1, ...) in
        slots 0, 1, ...  With `group`, the result is keyed by group(jet
        part) instead: a part whose key is None is dropped, and the parts of
        one key are summed as int numerators, all before any reduction.
        With `scale`, each coefficient is multiplied by the int scale(key)
        before its one reduction."""
        parts = {}
        for key, v in self.terms.items():
            sig, jets = split(key, 2)
            parts.setdefault(jets, {})[sig] = v
        if group:
            grouped = {}
            for jets, nums in parts.items():
                g = group(jets)
                if g is not None:
                    got = grouped.get(g)
                    if got is None:
                        grouped[g] = nums
                    else:
                        add_into(got, nums)
            parts = grouped
        out = {}
        for jets, nums in parts.items():
            c = scale(jets) if scale else 1
            if c != 1:
                nums = {k: v * c for k, v in nums.items()}
            out[jets] = _make(nums, self.den)
        return out

    def subs_jets(self, values) -> "JetPoly":
        """Evaluate the jet variables at exact rationals, leaving a JetPoly
        without jets; z1 may be inverted.  Each distinct jet part's value is
        formed once as (numerator, denominator); the terms are summed as int
        numerators over den * lcm(value denominators) and reduced once."""
        parts, factors, valued = {}, {}, []
        for key, c in self.terms.items():
            sig, jets = split(key, 2)
            parts.setdefault(jets, []).append((sig, c))
        n = width(parts)
        for jets, terms in parts.items():
            num = den = 1  # den may turn negative, or 0 under a zero value's negative power
            for k, e in enumerate(unpack(jets, n)):
                if e:
                    if (k, e) not in factors:
                        q = Q(values[k])
                        a, b = (q.numerator, q.denominator) if e > 0 else (q.denominator, q.numerator)
                        factors[k, e] = a ** abs(e), b ** abs(e)
                    num, den = num * factors[k, e][0], den * factors[k, e][1]
            valued.append((num, den, terms))
        common = lcm(*(den for _, den, _ in valued))  # ZeroDivisionError below if it is 0
        acc = {}
        for num, den, terms in valued:
            scale = num * (common // den)
            if scale:
                for sig, c in terms:
                    acc[sig] = acc.get(sig, 0) + c * scale
        return _make(nonzero(acc), self.den * common)

    def weighted_degrees(self, jet_weight, s1_weight: int = 0, s3_weight: int = 0):
        """Set of term degrees under deg z_k = jet_weight(k)."""
        n = width(self.terms)
        weights = [s1_weight, s3_weight] + [jet_weight(k) for k in range(n - 2)]
        return {sum(w * e for w, e in zip(weights, unpack(key, n))) for key in self.terms}

    # -- division ---------------------------------------------------------

    def unit_inverse(self) -> "JetPoly | None":
        """c^-1 z1^-k when self is c z1^k with c != 0, a unit of the Laurent
        jet ring; None for any other polynomial."""
        if len(self.terms) != 1:
            return None
        (key, c), = self.terms.items()
        k = exponent(key, 3)  # slot 3 holds z1
        if key != k * unit(3):
            return None
        return _raw({-key: -self.den if c < 0 else self.den}, abs(c))

    def __repr__(self):
        from .textform import jet_text

        return f"JetPoly({jet_text(self)})"


def _check_index(k: int) -> None:
    if k < 0:
        raise ValueError(f"z{k}: jet indices are nonnegative")


def _check_signs(sigma, jets) -> None:
    """Sigma exponents are nonnegative; a jet other than z1 is nonnegative."""
    if any(e < 0 for e in sigma):
        raise ValueError("sigma exponents must be nonnegative")
    if any(e < 0 and k != 1 for k, e in jets.items()):
        raise ValueError("only z1 may carry a negative exponent")
