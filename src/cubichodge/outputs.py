"""Downstream quantities: v(t), gap polynomials R_g, Faber leading terms,
Hodge intersection tables and the first-flow consistency check.

The series are TSeries (defined in phiseries) in t_0..t_{n_max}.  v(t)
solves v = sum_i t_i v^i / i! and is built term by term from its
Lagrange-inversion closed form; its t0-jets substitute into a free energy to
expand H_g back into intersection-number data.  `hodge_expand` expands H_g
in full and is the reference route.  `intersection_table` expands it only
at t0 = t1 = 0 and reads every row with a tau_0 or a tau_1 off the string
and dilaton equations, whose preconditions on H_g (no z0, jet weight 2g - 2)
it checks.  Table rows are raw coefficients, or bracket values (times the
automorphism factors prod m_i!) when normalized.
"""
from __future__ import annotations

from math import factorial, lcm, prod
from operator import mul

from .jets import JetPoly
from .loop import FreeEnergy
from .phiseries import TSeries, bernoulli
from .ratio import Q
from .sparse import unit, unpack, width


# -- genus zero -----------------------------------------------------------------


def v_series(n_max: int, d_max: int) -> TSeries:
    """v(t) = d^2 H_0 / dt_0^2, the solution of v = sum_i t_i v^i / i!."""
    return v_jets(n_max, d_max, 0)[0]


def v_jets(n_max: int, d_max: int, count: int, origin: bool = False) -> list:
    """[v, dv/dt_0, ..., d^count v/dt_0^count] to degree d_max, from the
    Lagrange-inversion closed form: v's t^m coefficient is (n-1)! / prod(m_i!
    (i!)^m_i) with n = sum m_i, on the m with sum i m_i = n - 1.  So v^(k)'s
    t^m coefficient, v's at t^(m + k e_0) times (m_0+k)!/m_0!, is W! / (m_0!
    prod_{i>=1} m_i! (i!)^m_i) with W = sum_{i>=1} i m_i and m_0 = 1 - k +
    sum_{i>=1} (i-1) m_i >= 0, in degree 1 - k + W.  Each m_1..m_{n_max} is
    enumerated once for every k; each degree of each jet is one JetPoly of
    int numerators over the lcm of its denominators, reduced once.

    With `origin`, the jets at t0 = t1 = 0: only the terms with m_0 = m_1 = 0,
    so v^(k) keeps the m_2.. with sum (i-1) m_i = k - 1, in degree sum m_i;
    v is 0 there and v' is 1."""
    terms = [{} for _ in range(count + 1)]  # k -> degree -> [(key, W!, denominator)]

    def place(i: int, key: int, w: int, s: int, n: int, p: int) -> None:
        # key packs m_1..m_{i-1}; w, s, n, p are their W, sum (j-1) m_j, sum m_j
        # and prod m_j! (j!)^m_j
        if i <= n_max:
            # W stays below d_max + count, and sum m_j <= d_max; at the origin
            # sum (j-1) m_j stays below count
            cap = min((d_max + count - 1 - w) // i, d_max - n)
            if origin:
                cap = min(cap, (count - 1 - s) // (i - 1))
            for m in range(cap + 1):
                place(i + 1, key + m * unit(2 + i), w + i * m, s + (i - 1) * m, n + m,
                      p * factorial(m) * factorial(i) ** m)
            return
        for k in range(max(0, w + 1 - d_max, 1 + s if origin else 0), min(count, 1 + s) + 1):
            m0 = 1 - k + s
            terms[k].setdefault(1 - k + w, []).append(
                (key + m0 * unit(2), factorial(w), factorial(m0) * p))

    place(2 if origin else 1, 0, 0, 0, 0, 1)
    del place  # a recursive closure is a reference cycle: break it so `terms` is freed on return
    jets = []
    for by_degree in terms:
        grades = {}
        for d, group in by_degree.items():
            den = lcm(*(q for _, _, q in group))
            grades[d] = JetPoly.packed({key: num * (den // q) for key, num, q in group}, den)
        jets.append(TSeries.graded(n_max, d_max, grades))
    return jets


# -- gap polynomials and the Faber term --------------------------------------------


def log_jet_values(top: int) -> list:
    """The z_j values of the jets of log x, j = 0..top: 0, then (-1)^(j-1) (j-1)!."""
    return [0] + [(-1) ** (j - 1) * factorial(j - 1) for j in range(1, top + 1)]


def r_poly(fe: FreeEnergy) -> JetPoly:
    """R_g: the x^(2-2g) content of H_g on the jets of log x, a JetPoly
    without jets."""
    if fe.genus < 2:
        raise ValueError("gap polynomials start at genus 2")
    out = fe.body.subs_jets(log_jet_values(fe.body.max_index()))
    degrees = out.weighted_degrees(lambda k: 0, s1_weight=1, s3_weight=3)
    if max(degrees, default=-1) > 3 * fe.genus - 3:
        raise AssertionError(f"R_{fe.genus} exceeds the degree bound")
    return out


def faber_leading(g: int) -> JetPoly:
    """Closed form (-1)^g / (2 (2g-2)!) |B_2g||B_{2g-2}| / (2g (2g-2)) (s1^3/3 - s3/6)^(g-1)."""
    if g < 2:
        raise ValueError("the Faber leading term starts at genus 2")
    b2g = bernoulli(2 * g)
    b2g2 = bernoulli(2 * g - 2)
    c = Q((-1) ** g) * abs(b2g) * abs(b2g2) / (2 * factorial(2 * g - 2) * 2 * g * (2 * g - 2))
    base = JetPoly.monomial(Q(1, 3), (3, 0), {}) + JetPoly.monomial(Q(-1, 6), (0, 1), {})
    return base ** (g - 1) * c


def h1_gap_check(fe: FreeEnergy) -> bool:
    """H_1 at (z0, z1) = (log x, 1/x) must collapse to ((s1 - 1)/24) log x."""
    if fe.genus != 1:
        raise ValueError("h1_gap_check takes the genus-1 free energy")
    # log(1/x) contributes -log_z1_coeff; the z0-linear part contributes its coefficient
    z0_lin = fe.body.sigma_coefficient({0: 1})
    rest = fe.body - z0_lin.mul_z(0)
    if rest:
        return False
    logx_coeff = z0_lin - JetPoly.const(fe.log_z1_coeff)
    expect = (JetPoly.monomial(1, (1, 0), {}) - JetPoly.one()) * Q(1, 24)
    return logx_coeff == expect


# -- Hodge tables --------------------------------------------------------------------


def hodge_expand(fe: FreeEnergy, n_max: int, d_max: int) -> TSeries:
    """H_g(v, v', ...) as a t-series; raw monomial coefficients.

    The genus-g expansion reads the t0-jets of v up to v^(3g-2), each built
    at d_max from the closed form (v_jets), and for g >= 2 multiplies them
    out in `_jet_products`.  This full expansion is the reference route:
    `intersection_table` expands H_g only at t0 = t1 = 0.
    """
    jets = v_jets(n_max, d_max, fe.max_jet_index())
    if fe.genus == 1:
        return jets[1].log() * fe.log_z1_coeff + jets[0] * fe.body.sigma_coefficient({0: 1})
    return _jet_products(fe.body, jets)


def _jet_products(body: JetPoly, jets: list) -> TSeries:
    """The body with each jet z_k replaced by the series jets[k].

    The body's packed keys are grouped by their jet part, and each distinct
    product prod_k jets[k]^e_k is formed once.  A factor that is the series
    1 is left out, and so is every group whose factors' lowest t-degrees add
    up to more than d_max: over Q[s1, s3] the lowest grade of a product is
    the product of the lowest grades, so that group's product is zero.  The
    pruning comes first: `sigma_parts(group=...)` sums the raw numerators
    of the jet parts kept in each group and reduces one sigma polynomial
    per group, none for a pruned part (at the origin of the genus-5 table
    at (tmax, dmax) = (3, 5), 73 of 271 jet parts are kept).  The
    groups are walked in sorted order as factor tuples ((k, e_k), ...), k
    descending, keeping one chain of partial products for the current
    prefix: a prefix shared by neighbouring tuples is multiplied once.  Each
    power is one factor times the power next to it, with one `recip` per
    jet.  Each degree of the sum is one `JetPoly.dot` over the (sigma part,
    that degree of its product) pairs of every group.
    """
    n_max, d_max = jets[0].n_max, jets[0].d_max
    one = TSeries.const(1, n_max, d_max)
    is_one = [s == one for s in jets]
    # the lowest degree of each jet, past d_max for the zero series
    low = [min(s.grades, default=d_max + 1) for s in jets]
    powers: dict[tuple[int, int], TSeries] = {}

    def jet_power(k, e):
        got = powers.get((k, e))
        if got is None:
            if e == 1:
                got = jets[k]
            elif e == -1:
                got = jets[k].recip()
            else:
                step = 1 if e > 0 else -1
                got = jet_power(k, e - step) * jet_power(k, step)
            powers[(k, e)] = got
        return got

    n = body.max_index() + 1  # jet slots

    def factor_group(jet_key: int):
        # ((k, e_k), ..., k descending), or None when the product is zero
        es = unpack(jet_key, n)
        factors = tuple((k, es[k]) for k in range(n - 1, -1, -1) if es[k] and not is_one[k])
        # a negative power is the recip of a series with constant term 1: lowest degree 0
        return factors if sum(e * low[k] for k, e in factors if e > 0) <= d_max else None

    # factor tuple -> the sigma part of its jet monomials, reduced once
    groups = body.sigma_parts(group=factor_group)
    chain: list[tuple[tuple[int, int], TSeries]] = []  # (factor, product of the prefix through it)
    pairs: dict[int, list] = {}  # degree -> [(sigma part, that degree of its product)]
    for factors in sorted(groups):
        shared = 0
        while shared < min(len(chain), len(factors)) and chain[shared][0] == factors[shared]:
            shared += 1
        del chain[shared:]
        for f in factors[shared:]:
            chain.append((f, chain[-1][1] * jet_power(*f) if chain else jet_power(*f)))
        product = chain[-1][1] if chain else one
        for d, grade in product.grades.items():
            pairs.setdefault(d, []).append((groups[factors], grade))
    del jet_power  # break the recursive closure's cycle, so the powers are freed on return
    return TSeries.graded(n_max, d_max, {d: JetPoly.dot(p) for d, p in sorted(pairs.items())})


def dimension_check(g: int, series: TSeries):
    """Every sigma part of every stored coefficient must sit on the dimension
    constraint sum(i_a) + a + 3b = 3g - 3 + n.  Returns (ok, first_violation)."""
    weights = (1, 3, *range(series.n_max + 1))
    for n, grade in series.grades.items():
        for k, c in grade.terms.items():
            key = unpack(k, series.n_max + 3)
            if sum(map(mul, weights, key)) != 3 * g - 3 + n:
                return False, (key[2:], key[:2], Q(c, grade.den))
    return True, None


def intersection_table(fe: FreeEnergy, n_max: int, d_max: int, normalized: bool = False):
    """Rows ((i_1..i_n), JetPoly without jets) sorted canonically; normalized multiplies by
    the automorphism factors prod m_i! to give the bracket values.

    By the dimension constraint sum(i_a) + a + 3b = 3g - 3 + n with n <= d_max,
    no t_i with i > 3g - 3 + d_max occurs, so the table stops there.

    H_g is expanded only at t0 = t1 = 0 (`_origin_series`), where v = 0 and
    v' = 1; those base rows are checked against the dimension constraint
    (AssertionError on a violation).  Every row with a tau_0 or a tau_1 then
    follows in bracket form from the string and dilaton equations, valid
    when 2g - 2 + n > 0 for the n insertions besides the one removed:

        <tau_0 prod tau_{d_j}>_g = sum_j <tau_{d_j - 1} prod_{i != j} tau_{d_i}>_g,
        <tau_1 prod_{j=1..n} tau_{d_j}>_g = (2g - 2 + n) <prod tau_{d_j}>_g.

    They hold because the Hodge class pulls back along the maps that forget
    a point (Witten 1991; Faber-Pandharipande 2000), and in jet space they
    are the facts that H_g has no z0 and has jet weight 2g - 2; for g >= 2
    a body that breaks either raises AssertionError naming the grading, and
    at genus 1 so does a body other than a sigma polynomial times z0.
    Both equations keep the weight sum (i - 1) m_i of a row t^m, so only
    rows whose weight lies in the range of the base rows' weights are
    visited.  Both only add rows and multiply them by ints, so every row
    is formed by `JetPoly.recurrence` as int numerators over the one
    denominator of the base rows, and reduced once, when it is returned
    (divided by its automorphism factor for a raw table).
    """
    g = fe.genus
    n_max = min(n_max, 3 * g - 3 + d_max)
    base = _origin_series(fe, n_max, d_max)
    ok, violation = dimension_check(g, base)
    if not ok:
        raise AssertionError(f"H_{g} table breaks the dimension constraint at {violation}")
    _check_gradings(fe)
    known = base.coefficients(_automorphisms)  # t-exponent tuple -> bracket
    if not known:
        return []
    weights = [sum(i * e for i, e in enumerate(key)) - sum(key) for key in known]
    lo, hi = min(weights), max(weights)

    # the base rows come first: at genus 1 they hold <tau_0>_1 and <tau_1>_1,
    # where neither equation holds, and for g >= 2 both hold on every row
    def lower(m: tuple) -> list:
        # (row, int weight) pairs: m's bracket is the weighted sum of theirs
        if m[0]:
            lowered = list(m)
            lowered[0] -= 1
            rows = []
            for i in range(1, len(m)):
                if m[i]:
                    row = lowered.copy()
                    row[i] -= 1
                    row[i - 1] += 1
                    rows.append((tuple(row), m[i]))
            return rows
        if len(m) > 1 and m[1]:
            # 2g - 2 + n, with n the insertions besides this tau_1
            return [((m[0], m[1] - 1, *m[2:]), 2 * g - 3 + sum(m))]
        return []

    def cores(i: int, core: tuple, size: int, w: int, span: int):
        # core = (m_2..m_{i-1}) with size sum m_j, weight w = sum (j-1) m_j and
        # span sum j m_j; a tau_0 lowers the weight by one, so w - m_0 in
        # [lo, hi] with m_0 <= d_max - size needs w >= lo and span <= d_max + hi
        if i > n_max:
            if w >= lo:
                yield core, size, w
            return
        for e in range(min(d_max - size, (d_max + hi - span) // i) + 1):
            yield from cores(i + 1, core + (e,), size + e, w + (i - 1) * e, span + i * e)

    # each row visited -> what divides its bracket: 1, or its automorphism factor
    visited = {}
    for core, size, w in cores(2, (), 0, 0, 0):
        for m0 in range(max(0, w - hi), min(w - lo, d_max - size) + 1):
            for m1 in range(d_max - size - m0 + 1 if n_max else 1):
                m = (m0, m1, *core)[:n_max + 1]
                visited[m] = 1 if normalized else _automorphisms(m)
    del cores  # break the recursive generator's cycle
    values = JetPoly.recurrence(known, lower, visited)
    rows = []
    for key in sorted(values, key=lambda k: (sum(k), k)):
        indices = []
        for i, e in enumerate(key):
            indices.extend([i] * e)
        rows.append((tuple(indices), values[key]))
    return rows


def _automorphisms(key: tuple) -> int:
    """prod m_i! of the row t^m: its bracket over its raw coefficient."""
    return prod(factorial(e) for e in key)


def _origin_series(fe: FreeEnergy, n_max: int, d_max: int) -> TSeries:
    """The rows of H_g's table with no tau_0 and no tau_1, and at genus 1 the
    two rows <tau_0>_1 and <tau_1>_1 the string and dilaton equations start
    from, as raw coefficients.

    For g >= 2 this is H_g at t0 = t1 = 0: every z1 power is 1 there, a z0
    term drops out, and each jet v^(k) keeps its closed-form terms with
    m_0 = m_1 = 0 (v_jets at the origin).  At genus 1 the expansion at the
    origin is zero (v = 0 and log v' = 0), and the two base rows are the z0
    coefficient of the body and the log z1 coefficient."""
    if fe.genus == 1:
        rows = [fe.body.sigma_coefficient({0: 1}), JetPoly.const(fe.log_z1_coeff)]
        return TSeries(n_max, d_max, {tuple(int(i == j) for i in range(n_max + 1)): c
                                      for j, c in enumerate(rows[:n_max + 1])})
    return _jet_products(fe.body, v_jets(n_max, d_max, fe.max_jet_index(), origin=True))


def _check_gradings(fe: FreeEnergy) -> None:
    """AssertionError unless H_g obeys the gradings the string and dilaton
    equations rest on: for g >= 2 no z0 and jet weight 2g - 2, at genus 1 a
    body that is a sigma polynomial times z0 (beside its log z1 term)."""
    g, body = fe.genus, fe.body
    if g == 1:
        if body != body.sigma_coefficient({0: 1}).mul_z(0):
            raise AssertionError("H_1 is not a sigma polynomial times z0: the string and "
                                 "dilaton equations do not give its table")
        return
    n = max(width(body.terms), 3)
    jet = (0, 0, *range(n - 2))  # deg z_k = k
    for key in body.terms:
        es = unpack(key, n)
        if es[2]:
            raise AssertionError(f"H_{g} has a z0 term: the string equation does not give its "
                                 "tau_0 rows")
        w = sum(map(mul, jet, es))
        if w != 2 * g - 2:
            raise AssertionError(f"H_{g} has a term of jet weight {w}, not 2g - 2 = {2 * g - 2}: "
                                 "the dilaton equation does not give its tau_1 rows")


# -- the first Hodge flow ---------------------------------------------------------------


def first_flow_check(h1: FreeEnergy) -> bool:
    """Order-epsilon^2 slice of w_{t1} = w w_{t0} + eps^2/12 (w_{t0t0t0} + s1 w_{t0} w_{t0t0}),
    to t-degree 3."""
    if h1.genus != 1:
        raise ValueError("first_flow_check takes the genus-1 free energy")
    order = 3
    n_max, d_max = order, order + 4
    v = v_series(n_max, d_max)
    v1 = v.diff(0)
    sig1 = h1.body.sigma_coefficient({0: 1})
    # Delta = d^2/dt0^2 of H_1(v, v')
    h1_series = v1.log() * h1.log_z1_coeff + v * sig1
    delta = h1_series.diff(0).diff(0)
    lhs = delta.diff(1)
    s1 = JetPoly.monomial(1, (1, 0), {})
    rhs = (delta * v.diff(0) + v * delta.diff(0)
           + (v.diff(0).diff(0).diff(0) + s1 * v.diff(0) * v.diff(0).diff(0)) * Q(1, 12))
    diff = lhs - rhs
    return all(d > order for d in diff.grades)
