"""Independent cross-checks pairing the constructions with their alternatives.

Each oracle recomputes a quantity along a second, independent route (series
shifts, geometric expansions, residue sums, floating Gamma functions) and
compares exactly or to a stated float tolerance.  They back both the test
suite and the `verify` command.  Each runs at one fixed range, set in its
body and named in its docstring; it takes only what varies: the rational
pair (v1_asymptotic_check takes all the pairs, so that one shift series
serves them all), a BtildeTable whose order is the xi order of its B~
comparisons and whose residue steps its pairings share, and the P~ table
the bridge reads.  The checks on rationals sum int numerators over one
denominator.  The bridge compares those sums with the B~ rows' own int
numerators and denominator by cross-multiplying, so an entry that passes
forms no rational; the other checks form one rational per compared value.

The two shift oracles (row0_shift_oracle and v1_asymptotic_check) expand
the shift factor in t = 1/z,

    sqrt(z) Phi(z) / (sqrt(z - j) Phi(z - j)) = exp(sum_{d>=1} G_d(j) t^d),

once, with the shift j symbolic in the z0 slot of a JetPoly over Q[s1, s3]
(shift_log).  One exp recurrence then gives every coefficient S_d(j) as a
polynomial in j (shift_series).  G_d has degree <= d in j: its log Phi
terms carry j^(d-n) with n >= 1, and the square root adds j^d / (2d).
S_d is a sum of products G_k1 ... G_kr with k1 + ... + kr = d, so it has
degree <= d in j too.  The value at an int shift j sums the j^e parts of
S_d under the int weights j^e; row 0 reads j = 0..8 and V_1 reads j = 1.

The two oracles that read P~ in xi (row0_shift_oracle and
specialization_bridge) take it from the Stirling basis directly: with
Theta = 1/(1 - xi),

    pi_(n+1) = sum_{j>=0} (-j)^n xi^j        (0^0 = 1),

so the xi^j coefficient of sum_m c_m pi_m is the int-weighted sum
sum_m c_m (-j)^(m-1) (pi_xi_weights).  q_geometric_check proves the identity
through Theta powers for n <= 8 to xi^12, which covers both reads: the
bridge's pi_m with m <= 5 to xi^10 and row 0's m <= 9 to xi^8.
"""
from __future__ import annotations

from math import comb, lcm
from operator import mul

from .jets import JetPoly
from .loop import T
from .phiseries import TSeries, log_phi, q_number
from .ptensors import PTensorTable
from .ratio import Q, QZERO
from .sparse import unpack
from .theta import ThetaPoly
from .virasoro import BtildeTable, c_float, v_zinv_expansion


def _rational_sums(coeffs, weights):
    """[sum_k c_k w_k for each weight row w], with the rationals c_k summed
    as int numerators over their lcm into one rational per row."""
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return [Q(sum(map(mul, nums, ws)), den) for ws in weights]


def theta_xi_coeffs(coeffs, order: int):
    """xi-series of sum_k c_k Theta^k for rationals c_k, with Theta^k =
    sum_m C(k+m-1, m) xi^m for k >= 1: one rational per xi^m."""
    return _rational_sums(coeffs, [[comb(k + m - 1, m) if k else int(m == 0)
                                    for k in range(len(coeffs))] for m in range(order + 1)])


def pi_xi_weights(count: int, order: int):
    """The weights that take the pi_m coefficients c_1..c_count to the
    xi-series of sum_m c_m pi_m, to xi^order: row j is [(-j)^(m-1) for
    m = 1..count], 0^0 = 1 (the module docstring), and the xi^j coefficient
    is the sum of c_m times row j."""
    return [[(-j) ** k for k in range(count)] for j in range(order + 1)]


def q_geometric_check():
    """sum_k Q(n,k) Theta^k re-expanded in xi must equal sum_j (-j)^n xi^j,
    for n <= 8 to xi^12."""
    n_max, order = 8, 12
    for n in range(n_max + 1):
        coeffs = [QZERO] * (n + 2)
        for k in range(1, n + 2):
            coeffs[k] = q_number(n, k)
        got = theta_xi_coeffs(coeffs, order)
        for j in range(order + 1):
            expect = Q(1) if (n == 0 and j == 0) else Q((-j) ** n)
            if got[j] != expect:
                return False, f"n={n}, xi^{j}: {got[j]} != {expect}"
    return True, None


def shift_log(order: int) -> dict:
    """log of sqrt(z) Phi(z) / (sqrt(z - j) Phi(z - j)) in t = 1/z with the
    shift j symbolic in the z0 slot: {d: G_d(j)} for d = 1..order, with

        G_d(j) = -sum_{n<d} C(d-1, d-n) j^(d-n) c_n + j^d / (2d)

    and c_n the t^n coefficients of log Phi: each c_n t^n of log Phi(z - j)
    is c_n t^n (1 - j t)^-n, whose n = d term cancels log Phi(z), and
    (1 - j t)^(-1/2) adds j^d / (2d)."""
    coeffs = {n: c for (n,), c in log_phi(order).coefficients().items()}
    return {d: JetPoly.sum([*(c.mul_z(0, d - n) for n, c in coeffs.items() if n < d),
                            JetPoly.monomial(Q(1, 2 * d), (0, 0), {0: d})],
                           [*(-comb(d - 1, d - n) for n in coeffs if n < d), 1])
            for d in range(1, order + 1)}


def shift_series(order: int) -> list:
    """The t^d coefficients S_d(j), d = 0..order, of the shift factor
    exp(sum_d G_d(j) t^d) (shift_log), each as {e: the JetPoly over
    Q[s1, s3] of its j^e part}: S_0 = 1 and S_d = (1/d) sum_k k G_k S_(d-k),
    one JetPoly.dot per degree."""
    kg = {k: g * k for k, g in shift_log(order).items()}
    s = [JetPoly.one()]
    for d in range(1, order + 1):
        s.append(JetPoly.dot([(g, s[d - k]) for k, g in kg.items() if k <= d]) * Q(1, d))
    return [{unpack(part, 1)[0]: c for part, c in sd.sigma_parts().items()} for sd in s]


def _at_shift(parts: dict, j: int) -> JetPoly:
    """A shift_series coefficient at the shift j: its j^e parts summed
    under the int weights j^e (0^0 = 1)."""
    return JetPoly.sum(parts.values(), [j ** e for e in parts])


def shift_expansion_term(j: int, order: int) -> TSeries:
    """sqrt(z) Phi(z) / (sqrt(z - j) Phi(z - j)) as a series in t = 1/z."""
    return TSeries.graded(0, order, {d: _at_shift(parts, j).mul_z(0, d)
                                     for d, parts in enumerate(shift_series(order))})


def row0_shift_oracle():
    """P~_0,n from the explicit sum vs the operator-shift expansion, for
    n <= 8 to xi^8."""
    n_max = xi_order = 8
    table = PTensorTable(n_max)
    shifts = shift_series(n_max)
    for n in range(n_max + 1):
        coeffs = table.ptilde(0, n).coeffs
        series = [JetPoly.sum(coeffs, ws) for ws in pi_xi_weights(len(coeffs), xi_order)]
        for j in range(xi_order + 1):
            want = _at_shift(shifts[n], j)
            if series[j] != want:
                return False, f"P~(0,{n}) at xi^{j}: {series[j]!r} != {want!r}"
    return True, None


def specialization_bridge(bt: BtildeTable, table: PTensorTable):
    """ptilde with sigma specialized must match the A_{k,n} route term by
    term, for i + j <= 4 to xi^bt.order; `table` needs n_max >= 4.  Each
    P~ entry is evaluated at (s1, s3) as int numerators over one
    denominator, and its xi sums are cross-multiplied with the B~ row's."""
    params, order = bt.params, bt.order
    s1, s3 = params.sigma_values()
    ij_max = 4
    for i in range(ij_max + 1):
        for j in range(ij_max + 1 - i):
            values = [c.evaluate_int(s1, s3) for c in table.ptilde(i, j).coeffs]
            den = lcm(*(d for _, d in values))
            nums = [v * (den // d) for v, d in values]
            want, want_den = bt._int_row(i, j)
            for ws, w in zip(pi_xi_weights(len(nums), order), want):
                if sum(map(mul, nums, ws)) * want_den != w * den:
                    return False, f"(i,j)=({i},{j}) for K=({params.k1},{params.k2})"
    return True, None


def btilde11_closed_form_check(bt: BtildeTable):
    """B~_1,1 against 1/4 Theta^3 - (3/8 - s1/12) Theta^2 + (1/8 - s1/12) Theta."""
    params = bt.params
    s1, _ = params.sigma_values()
    closed = [QZERO, Q(1, 8) - s1 / 12, -(Q(3, 8) - s1 / 12), Q(1, 4)]
    if bt.row(1, 1) != theta_xi_coeffs(closed, bt.order):
        return False, f"K=({params.k1},{params.k2})"
    return True, None


def btilde11_integral_check(bt: BtildeTable):
    """Term-by-term integral of B~_1,1 / xi against the closed antiderivative."""
    s1, _ = bt.params.sigma_values()
    series = bt.row(1, 1)
    if series[0]:
        return False, "B~_1,1 has a xi^0 term"
    for n in range(1, bt.order + 1):
        lhs = series[n] / n
        rhs = Q(n + 1, 8) - (Q(1, 8) - s1 / 12)
        if lhs != rhs:
            return False, f"xi^{n}: {lhs} != {rhs}"
    return True, None


def v1_asymptotic_check(pairs):
    """z-expansion of the explicit V_1 against exp(logPhi(z) - logPhi(z-1)) sqrt(z/(z-1)),
    to z^-8, for each RationalParams of `pairs`; the shift series is built
    and read at j = 1 once for all of them."""
    order = 8
    series = [_at_shift(parts, 1) for parts in shift_series(order)]
    for params in pairs:
        got = v_zinv_expansion(params, 1, order)
        s1, s3 = params.sigma_values()
        for n in range(order + 1):
            want = series[n].evaluate(s1, s3)
            if got[n] != want:
                return False, f"({params.k1},{params.k2}): z^-{n}: {got[n]} != {want}"
    return True, None


def c_pair_float_check(bt: BtildeTable):
    """Every exact pairing with m + n <= 3, read through `bt`, against the
    log-Gamma floats to a relative 1e-10."""
    params = bt.params
    h = params.h
    mn_max, tol = 3, 1e-10
    # every alpha + h m below, beta + h n included, and every h (m + 1)
    floats = {k: c_float(params, k) for k in
              [a + h * m for a in params.index_set_star() for m in range(mn_max + 1)]
              + [h * (m + 1) for m in range(mn_max + 1)]}
    for m in range(mn_max + 1):
        for n in range(mn_max + 1 - m):
            cases = [(alpha, params.k1 - alpha) for alpha in range(1, params.k1)]
            cases += [(alpha, -alpha - params.k2) for alpha in range(-(params.k2 - 1), 0)]
            for alpha, beta in cases:
                exact = float(bt.c_pair(alpha, m, beta, n))
                approx = floats[alpha + h * m] * floats[beta + h * n]
                if abs(exact - approx) > tol * max(1.0, abs(approx)):
                    return False, f"(alpha,m,beta,n)=({alpha},{m},{beta},{n})"
            exact = float(bt.c_pair(0, m, 0, n))
            approx = floats[h * (m + 1)] * floats[h * (n + 1)]
            if abs(exact - approx) > tol * max(1.0, abs(approx)):
                return False, f"aligned (m,n)=({m},{n})"
    return True, None


def cy_power_sum_check():
    """Symbolic power sums against direct sums at rational CY triples,
    exactly, for odd k <= 11."""
    from .phiseries import power_sum

    triples = [(Q(1), Q(1), Q(-1, 2)), (Q(1, 2), Q(1, 3), Q(-1, 5))]
    for (p, q, r) in triples:
        if p * q + q * r + r * p:
            raise AssertionError("test triple violates the CY condition")
        s1 = -(p + q + r)
        s3 = -2 * (p**3 + q**3 + r**3)
        for k in range(1, 12, 2):
            if power_sum(k).evaluate(s1, s3) != p**k + q**k + r**k:
                return False, f"k={k} at triple {(p, q, r)}"
    return True, None


def chain_rule_check():
    """ThetaPoly.derive^i h = sum_j f_{i,j} xi_euler^j h, the solver's route, for
    i <= 6 and h = Theta, Theta^3 and the genus-1 right-hand side
    T = (s1/24) pi_1 - pi_2/16, with f_{i,j} read from the f-table of a
    PTensorTable(6), as the solver reads its own."""
    i_max = 6
    table = PTensorTable(i_max)
    # Theta = pi_1 and Theta^3 = pi_1 - (3/2) pi_2 + (1/2) pi_3
    cubed = ThetaPoly([JetPoly.const(c) for c in (1, Q(-3, 2), Q(1, 2))])
    for name, h in (("Theta", ThetaPoly.theta()), ("Theta^3", cubed), ("T", T)):
        xi_pow = [h]
        for _ in range(i_max):
            xi_pow.append(xi_pow[-1].xi_euler())
        d = h
        for i in range(i_max + 1):
            rhs = ThetaPoly.zero()
            for j in range(i + 1):
                f = table.f(i, j)
                if f:
                    rhs = rhs + xi_pow[j] * f
            if d != rhs:
                return False, f"i={i}, h={name}"
            if i < i_max:
                d = d.derive()
    return True, None
