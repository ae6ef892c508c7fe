"""Independent cross-checks pairing the constructions with their alternatives.

Each oracle recomputes a quantity along a second, independent route (series
shifts, geometric expansions, residue sums, floating Gamma functions) and
compares exactly or to a stated float tolerance.  They back both the test
suite and the `verify` command.
"""
from __future__ import annotations

from math import comb

from .bell import FJetTable
from .phiseries import ZInvSeries, binomial_zinv, log_phi, log_phi_shifted, q_number
from .ptensors import PTensorTable
from .ratio import Q, QZERO
from .theta import ThetaPoly
from .virasoro import BtildeTable, RationalParams, c_float, c_pair_memo, v_rational


def theta_xi_coeffs(sigma_coeffs, order: int):
    """xi-series of sum_k c_k Theta^k; the c_k are rationals or SigmaPolys."""
    out = [QZERO] * (order + 1)
    for k, c in enumerate(sigma_coeffs):
        if not c:
            continue
        if k == 0:
            out[0] += c
            continue
        for m in range(order + 1):
            out[m] += c * comb(k + m - 1, m)
    return out


def q_geometric_check(n_max: int, order: int = 12):
    """sum_k Q(n,k) Theta^k re-expanded in xi must equal sum_j (-j)^n xi^j."""
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


def shift_expansion_term(j: int, order: int) -> ZInvSeries:
    """sqrt(z) Phi(z) / (sqrt(z - j) Phi(z - j)) as a 1/z series."""
    if j == 0:
        return ZInvSeries.one(order)
    expo = log_phi(order) - log_phi_shifted(order, j)
    return expo.exp() * binomial_zinv(Q(-1, 2), -j, order)


def row0_shift_oracle(table: PTensorTable, n_max: int, xi_order: int):
    """P~_0,n from the explicit sum vs the operator-shift expansion."""
    shifts = [shift_expansion_term(j, n_max) for j in range(xi_order + 1)]
    table.ensure_row0(n_max)
    for n in range(n_max + 1):
        tp = table.row0(n)
        coeffs = [c.as_sigma() for c in tp.coeffs]
        series = theta_xi_coeffs(coeffs, xi_order)
        for j in range(xi_order + 1):
            want = shifts[j].coeff(n)
            if series[j] != want:
                return False, f"P~(0,{n}) at xi^{j}: {series[j]!r} != {want!r}"
    return True, None


def _btilde(params: RationalParams, order: int, table: BtildeTable | None) -> BtildeTable:
    """`table` when a caller shares one (its rows are read to `order`), else a new one."""
    if table is None:
        return BtildeTable(params, order)
    if table.params != params or table.order < order:
        raise ValueError(f"shared B~ table of order {table.order} cannot serve order {order}")
    return table


def specialization_bridge(params: RationalParams, table: PTensorTable,
                          ij_max: int, xi_order: int, btilde: BtildeTable | None = None):
    """ptilde with sigma specialized must match the A_{k,n} route term by term."""
    s1, s3 = params.sigma_values()
    bt = _btilde(params, xi_order, btilde)
    table.ensure_row0(ij_max)
    for i in range(ij_max + 1):
        for j in range(ij_max + 1 - i):
            tp = table.ptilde(i, j)
            coeffs = [c.as_sigma().evaluate(s1, s3) for c in tp.coeffs]
            mine = theta_xi_coeffs(coeffs, xi_order)
            other = bt.row(i, j)[: xi_order + 1]
            if mine != other:
                return False, f"(i,j)=({i},{j}) for K=({params.k1},{params.k2})"
    return True, None


def btilde11_closed_form_check(params: RationalParams, order: int = 10,
                               btilde: BtildeTable | None = None):
    """B~_1,1 against 1/4 Theta^3 - (3/8 - s1/12) Theta^2 + (1/8 - s1/12) Theta."""
    s1, _ = params.sigma_values()
    closed = [QZERO, Q(1, 8) - s1 / 12, -(Q(3, 8) - s1 / 12), Q(1, 4)]
    expect = theta_xi_coeffs(closed, order)
    got = _btilde(params, order, btilde).row(1, 1)[: order + 1]
    if got != expect:
        return False, f"K=({params.k1},{params.k2})"
    return True, None


def btilde11_integral_check(params: RationalParams, order: int = 10,
                            btilde: BtildeTable | None = None):
    """Term-by-term integral of B~_1,1 / xi against the closed antiderivative."""
    s1, _ = params.sigma_values()
    series = _btilde(params, order, btilde).row(1, 1)
    if series[0]:
        return False, "B~_1,1 has a xi^0 term"
    for n in range(1, order + 1):
        lhs = series[n] / n
        rhs = Q(n + 1, 8) - (Q(1, 8) - s1 / 12)
        if lhs != rhs:
            return False, f"xi^{n}: {lhs} != {rhs}"
    return True, None


def v1_asymptotic_check(params: RationalParams, order: int = 8):
    """z-expansion of the explicit V_1 against exp(logPhi(z) - logPhi(z-1)) sqrt(z/(z-1))."""
    got = v_rational(params, 1).zinv_expansion(order)
    series = shift_expansion_term(1, order)
    s1, s3 = params.sigma_values()
    for n in range(order + 1):
        want = series.coeff(n).evaluate(s1, s3)
        if got[n] != want:
            return False, f"z^-{n}: {got[n]} != {want}"
    return True, None


def c_pair_float_check(params: RationalParams, mn_max: int = 3, tol: float = 1e-10,
                       pairs: dict | None = None):
    """Every exact pairing against the log-Gamma floats; `pairs` may hold
    products computed before (see c_pair_memo)."""
    h = params.h
    pairs = {} if pairs is None else pairs
    for m in range(mn_max + 1):
        for n in range(mn_max + 1 - m):
            cases = [(alpha, params.k1 - alpha) for alpha in range(1, params.k1)]
            cases += [(alpha, -alpha - params.k2) for alpha in range(-(params.k2 - 1), 0)]
            for alpha, beta in cases:
                exact = float(c_pair_memo(params, pairs, alpha, m, beta, n))
                approx = c_float(params, alpha + h * m) * c_float(params, beta + h * n)
                if abs(exact - approx) > tol * max(1.0, abs(approx)):
                    return False, f"(alpha,m,beta,n)=({alpha},{m},{beta},{n})"
            exact = float(c_pair_memo(params, pairs, 0, m, 0, n))
            approx = c_float(params, h * (m + 1)) * c_float(params, h * (n + 1))
            if abs(exact - approx) > tol * max(1.0, abs(approx)):
                return False, f"aligned (m,n)=({m},{n})"
    return True, None


def cy_power_sum_check(k_max: int = 11, tol: float = 1e-12):
    """Symbolic power sums against direct float sums at CY triples."""
    from .phiseries import power_sum

    triples = [(1.0, 1.0, -0.5), (0.5, 1.0 / 3.0, -0.2)]
    for (p, q, r) in triples:
        if abs(p * q + q * r + r * p) > 1e-15:
            raise AssertionError("test triple violates the CY condition")
        s1 = -(p + q + r)
        s3 = -2.0 * (p**3 + q**3 + r**3)
        for k in range(1, k_max + 1, 2):
            direct = p**k + q**k + r**k
            sym = power_sum(k).evaluate_float(s1, s3)
            if abs(sym - direct) > tol * max(1.0, abs(direct)):
                return False, f"k={k} at triple {(p, q, r)}"
    return True, None


def chain_rule_check(cutoff: int, i_max: int = 6):
    """derive^i h = sum_j f_{i,j} xi_euler^j h for h = Theta and Theta^3."""
    fj = FJetTable(cutoff)
    for power in (1, 3):
        h = ThetaPoly.theta(cutoff, power)
        xi_pow = [h]
        for _ in range(i_max):
            xi_pow.append(xi_pow[-1].xi_euler())
        d = h
        for i in range(i_max + 1):
            rhs = ThetaPoly.zero(cutoff)
            for j in range(i + 1):
                f = fj.f(i, j)
                if f:
                    rhs = rhs + xi_pow[j] * f
            if d != rhs:
                return False, f"i={i}, h=Theta^{power}"
            if i < i_max:
                d = d.derive()
    return True, None
