"""Downstream quantities: v(t), gap polynomials R_g, Faber leading terms,
Hodge intersection tables and the first-flow consistency check.

The series are TSeries (defined in phiseries) in t_0..t_{n_max}.  v(t)
solves v = sum_i t_i v^i / i! and is built term by term from its
Lagrange-inversion closed form; its t0-jets substitute into a free energy to
expand H_g back into intersection-number data (coefficients are reported
raw; the factorial-normalized view is a formatting concern).
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


def v_jets(n_max: int, d_max: int, count: int) -> list:
    """[v, dv/dt_0, ..., d^count v/dt_0^count] to degree d_max, from the
    Lagrange-inversion closed form: v's t^m coefficient is (n-1)! / prod(m_i!
    (i!)^m_i) with n = sum m_i, on the m with sum i m_i = n - 1.  So v^(k)'s
    t^m coefficient, v's at t^(m + k e_0) times (m_0+k)!/m_0!, is W! / (m_0!
    prod_{i>=1} m_i! (i!)^m_i) with W = sum_{i>=1} i m_i and m_0 = 1 - k +
    sum_{i>=1} (i-1) m_i >= 0, in degree 1 - k + W.  Each m_1..m_{n_max} is
    enumerated once for every k; each degree of each jet is one JetPoly of
    int numerators over the lcm of its denominators, reduced once."""
    terms = [{} for _ in range(count + 1)]  # k -> degree -> [(key, W!, denominator, top)]

    def place(i: int, key: int, w: int, s: int, n: int, p: int, top: int) -> None:
        # key packs m_1..m_{i-1}; w, s, n, p are their W, sum (j-1) m_j, sum m_j,
        # prod m_j! (j!)^m_j, and top is the largest m_j
        if i <= n_max:
            # W stays below d_max + count, and sum m_j <= d_max
            for m in range(min((d_max + count - 1 - w) // i, d_max - n) + 1):
                place(i + 1, key + m * unit(2 + i), w + i * m, s + (i - 1) * m, n + m,
                      p * factorial(m) * factorial(i) ** m, max(top, m))
            return
        for k in range(max(0, w + 1 - d_max), min(count, 1 + s) + 1):
            m0 = 1 - k + s
            terms[k].setdefault(1 - k + w, []).append(
                (key + m0 * unit(2), factorial(w), factorial(m0) * p, max(top, m0)))

    place(1, 0, 0, 0, 0, 1, 0)
    del place  # a recursive closure is a reference cycle: break it so `terms` is freed on return
    jets = []
    for by_degree in terms:
        grades = {}
        for d, group in by_degree.items():
            den = lcm(*(q for _, _, q, _ in group))
            grades[d] = JetPoly.packed({key: num * (den // q) for key, num, q, _ in group}, den,
                                       max(top for _, _, _, top in group))
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
    at d_max from the closed form (v_jets).

    For g >= 2 the jets v^(k) are sigma-free, so the body's packed keys are
    grouped by their jet part and each distinct product prod_k (v^(k))^e_k
    is formed once.  The jet parts are walked in sorted order as factor
    tuples ((k, e_k), ...), k descending, keeping one chain of partial
    products for the current prefix: a prefix shared by neighbouring tuples
    is multiplied once.  Each power is one factor times the power next to
    it, with one `recip` per jet.  Each degree of the sum is one `JetPoly.dot`
    over the (sigma part, that degree of its product) pairs of every group.
    """
    jets = v_jets(n_max, d_max, fe.max_jet_index())
    if fe.genus == 1:
        return jets[1].log() * fe.log_z1_coeff + jets[0] * fe.body.sigma_coefficient({0: 1})
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

    # factor tuple ((k, e_k), ..., k descending) -> the sigma part of its jet monomial
    groups = {}
    parts = fe.body.sigma_parts()
    n = width(parts)
    for jet_key, sigma in parts.items():
        es = unpack(jet_key, n)
        groups[tuple((k, es[k]) for k in range(len(es) - 1, -1, -1) if es[k])] = sigma
    one = TSeries.const(1, n_max, d_max)
    chain: list[tuple[tuple[int, int], TSeries]] = []  # (factor, product of the prefix through it)
    pairs: dict[int, list] = {}  # degree -> [(sigma part, that degree of its product)]
    for factors in sorted(groups):
        shared = 0
        while shared < min(len(chain), len(factors)) and chain[shared][0] == factors[shared]:
            shared += 1
        del chain[shared:]
        for f in factors[shared:]:
            if not chain:
                chain.append((f, jet_power(*f)))
            else:
                # a prefix with no terms up to d_max stays zero: skip its products
                prefix = chain[-1][1]
                chain.append((f, prefix * jet_power(*f) if prefix else prefix))
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
    no t_i with i > 3g - 3 + d_max occurs, so the expansion stops there; every
    row is checked against it (AssertionError on a violation).
    """
    n_max = min(n_max, 3 * fe.genus - 3 + d_max)
    series = hodge_expand(fe, n_max, d_max)
    ok, violation = dimension_check(fe.genus, series)
    if not ok:
        raise AssertionError(f"H_{fe.genus} table breaks the dimension constraint at {violation}")
    coefficients = series.coefficients(
        (lambda key: prod(factorial(e) for e in key)) if normalized else None)
    rows = []
    for key in sorted(coefficients, key=lambda k: (sum(k), k)):
        sp = coefficients[key]
        indices = []
        for i, e in enumerate(key):
            indices.extend([i] * e)
        rows.append((tuple(indices), sp))
    return rows


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
