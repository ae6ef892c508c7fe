"""The loop-equation coefficient tensors P~_{i,j}(Theta; s1, s3) and P_{i,j}.

Every Theta polynomial here is held in the Stirling basis pi_m of theta.py.
Row zero comes from the explicit double sum

  sum_n z^-n P~_{0,n} = sum_n pi_(n+1)
      sum_{m=0}^n (-1)^{n-m} (2n-2m-1)!! / (2^{n-m} m! (n-m)!) z^{m-n}
      * Phi d_z^m (1/Phi),

where pi_(n+1) = sum_{k=1}^{n+1} Q(n,k) Theta^k, read off at each z^-n.
Times 2^n n!, the weight of the part m of pi_(n+1) is the integer

  (-1)^d (2d-1)!! 2^m C(n, m),   d = n - m,

so each z^-k coefficient of pi_(n+1) is one int-weighted JetPoly.sum,
scaled once by 1/(2^n n!).  Higher rows follow the recursion P~_{i+1,j} =
xi_euler(P~_{i,j}) - P~_{i,j+1}, in which xi_euler shifts pi_m to
-pi_(m+1); per pi_m it is one weighted sum

  P~_{i+1,j}[m] = -P~_{i,j}[m-1] - P~_{i,j+1}[m],

over entries whose Theta degrees may differ.  The index symmetry
P~_{i,j} = P~_{j,i} is NOT used by the construction, so it stays available
as a genuine consistency check (`verify --suite ptable`).  The solver does
rely on it: its W carries only the upper triangle, and `contract` folds
(k, l) and (l, k) onto one entry, so it reads no P~_{k,l} with k > l.

The loop equation reads P~ only through the dressed tensors
P_{a,b} = sum_{k,l} f_{a,k} f_{b,l} P~_{k,l}.  Its L_i read row 0 alone
(loop.py); its right-hand side reads sums sum_{a,b} w_{a,b} P_{a,b} with
jet weights w.  `contract` evaluates such a sum by linearity, without
forming any P_{a,b}:

  sum_{a,b} w_{a,b} P_{a,b} = sum_{k,l} P~_{k,l} (F^T w F)_{k,l},
  (F^T w F)_{k,l} = sum_a f_{a,k} G_{a,l},   G_{a,l} = sum_b w_{a,b} f_{b,l}.

Each pass is a sum of jet x jet products, and each is summed by JetPoly.dot
over one common denominator without forming the products.  P~ has
sigma-only coefficients, so the last step is one ThetaPoly.dot: per pi_m,
a sum of sigma x jet products.

The f-table holds the jet polynomials f_{i,j} of that dressing, produced
by the first-order recursion

    f_{i,0} = delta_{i,0},   f_{i+1,j+1} = derive(f_{i,j+1}) + z1 * f_{i,j},

each entry one JetPoly.dot of the pair (f_{i,j}, z1) with derive(f_{i,j+1})
run into the same accumulator.  They identify with the partial Bell
polynomials B_{i,j}(z1, ..., z_{i-j+1}), which BellTable builds by the
recurrence

    B_{n,k} = sum_i C(n-1, i-1) z_i B_{n-i,k-1};

the two recursions share no code, and the identification is checked once
per table against the Bell rows i <= SELFCHECK_TO.

A table holds P~_{i,j} for i + j <= n_max and f_{i,j} for i <= n_max, a
size fixed when it is made: row 0 up to z^-n_max and the f-table are each
built whole on their first read, and every P~ entry once read is cached.
By the gradings of loop.py (and deg 1/z = -1, so Phi d^m/dz^m (1/Phi) has
weight -m) no exponent of a table passes n_max, but the z^-(n_max + 1)
that d/dz forms past the truncation: n_max > N_MAX raises ValueError.
P~ carries no jet, and the table no jet bound: f_{i,j} carries the jets
z1..z_{i-j+1}, and the weights bring in only the jets they carry.
`dump_json` writes a set fixed by n_max, whatever has been read: row 0 and
every P~_{i,j} with i, j >= 1 and i + j <= n_max, in powers of Theta.
"""
from __future__ import annotations

from functools import cache
from itertools import zip_longest
from math import comb, factorial

from .jets import JetPoly
from .phiseries import double_factorial_odd, phi_d_inv_all
from .ratio import Q
from .sparse import SLOT_HALF
from .theta import ThetaPoly

CONSTRUCTION_VERSION = "ptensor-v1:binomial-lhs,row0-eq43,dfact(-1)=1"

# a table checks its rows f_{i,j} for i <= SELFCHECK_TO against the Bell table
SELFCHECK_TO = 8

N_MAX = SLOT_HALF - 2  # the largest n_max whose z^-(n_max + 1) fits a slot

_ZERO = JetPoly.zero()
_Z1 = JetPoly.z(1)


class PTensorTable:
    """P~_{i,j} for i + j <= n_max and f_{i,j} for i <= n_max; row 0 and the
    f-table are each built whole on their first read.  Its exponents reach
    n_max + 1 (module docstring): ValueError past N_MAX."""

    def __init__(self, n_max: int):
        if n_max > N_MAX:
            raise ValueError(f"n_max {n_max} is above N_MAX = {N_MAX}")
        self.n_max = n_max
        self._f: list[list[JetPoly]] | None = None
        self._ptilde: dict[tuple[int, int], ThetaPoly] = {}

    def ptilde(self, i: int, j: int) -> ThetaPoly:
        """P~_{i,j}; built strictly by the first-index recursion from row 0."""
        if i < 0 or j < 0:
            raise ValueError("negative tensor index")
        if i + j > self.n_max:
            raise ValueError(f"P~({i},{j}) lies past the table's i + j <= {self.n_max}")
        got = self._ptilde.get((i, j))
        if got is not None:
            return got
        if i == 0:
            self._ptilde.update(((0, n), tp) for n, tp in enumerate(_build_row0(self.n_max)))
            return self._ptilde[0, j]
        # pi_m: -P~_{i-1,j}[m-1] (xi_euler) - P~_{i-1,j+1}[m]; the entries may differ in degree
        shifted = (_ZERO,) + self.ptilde(i - 1, j).coeffs
        value = ThetaPoly([JetPoly.sum(pair, (-1, -1)) for pair in
                           zip_longest(shifted, self.ptilde(i - 1, j + 1).coeffs, fillvalue=_ZERO)])
        self._ptilde[(i, j)] = value
        return value

    # -- dressing -----------------------------------------------------------

    def f(self, i: int, j: int) -> JetPoly:
        """f_{i,j}, zero for j outside 0..i; rows 0..n_max are built and
        checked against the Bell rows whole on the first read."""
        if not 0 <= i <= self.n_max:
            raise ValueError(f"f({i},{j}) lies past the table's i <= {self.n_max}")
        if self._f is None:
            self._f = _build_f(self.n_max)
        return self._f[i][j] if 0 <= j <= i else _ZERO

    def contract(self, weights) -> ThetaPoly:
        """sum_{a,b} w_{a,b} P_{a,b} for weights {(a, b): JetPoly}, as
        sum_{k,l} P~_{k,l} (F^T w F)_{k,l}; no P_{a,b} is formed.

        G, F^T w F and the last step are each summed by one `dot` call per
        entry (per pi_m in the last step).  P~ is symmetric, so the second
        pass keys (k, l) and (l, k) by (min, max): M_{k,l} + M_{l,k} is one
        dot against one entry, and none with k > l is read or built."""
        f = self.f
        # f_{b,l} vanishes for l > b, and for l = 0 unless b = 0
        g_pairs: dict[tuple[int, int], list] = {}
        for (a, b), w in weights.items():
            for l in range(0 if b == 0 else 1, b + 1):
                g_pairs.setdefault((a, l), []).append((f(b, l), w))
        fwf_pairs: dict[tuple[int, int], list] = {}
        for (a, l), pairs in g_pairs.items():
            g = JetPoly.dot(pairs)
            if g:
                for k in range(0 if a == 0 else 1, a + 1):
                    fwf_pairs.setdefault((min(k, l), max(k, l)), []).append((f(a, k), g))
        return ThetaPoly.dot([(self.ptilde(k, l), JetPoly.dot(pairs))
                              for (k, l), pairs in fwf_pairs.items()])

    # -- diagnostics --------------------------------------------------------

    def dump_json(self) -> dict:
        """Row 0 and every P~_{i,j} with i, j >= 1, i + j <= n_max, in powers
        of Theta, whatever has been read so far."""
        from .textform import jet_json

        n = self.n_max
        keys = [(0, j) for j in range(n + 1)]
        keys += [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]
        entries = {f"{i},{j}": [jet_json(c) for c in self.ptilde(i, j).powers()]
                   for i, j in keys}
        # the format's jet width is 3g + 2 for a genus-g solve, whose table has n_max = 3g - 2
        return {"version": CONSTRUCTION_VERSION, "cutoff": self.n_max + 4, "ptilde": entries}


def _build_row0(n_max: int) -> list[ThetaPoly]:
    pdi = [s.coefficients() for s in phi_d_inv_all(n_max, n_max)]
    # acc[n][m] is the z^-n pi_m coefficient
    acc: list[dict[int, JetPoly]] = [dict() for _ in range(n_max + 1)]
    dfact = [1]  # dfact[d] = (2d - 1)!!
    for d in range(1, n_max + 1):
        dfact.append(dfact[-1] * (2 * d - 1))
    for np_ in range(n_max + 1):
        # zs[n]: the parts of the z^-n coefficient of 2^n' n'! sum_m c_{n',m} z^{m-n'} u_m,
        # which multiplies pi_(n'+1), each with its int weight 2^n' n'! c_{n',m}
        zs: dict[int, tuple[list, list]] = {}
        for m in range(np_ + 1):
            d = np_ - m
            w = dfact[d] * comb(np_, m) << m
            if d % 2 == 1:
                w = -w
            for (r,), c in pdi[m].items():
                if d + r <= n_max:
                    parts, weights = zs.setdefault(d + r, ([], []))
                    parts.append(c)
                    weights.append(w)
        scale = factorial(np_) << np_
        for n, (parts, weights) in zs.items():
            acc[n][np_ + 1] = JetPoly.sum(parts, weights) / scale
    out = []
    for n in range(n_max + 1):
        coeffs = [JetPoly.zero()] * max(acc[n], default=0)
        for m, c in acc[n].items():
            coeffs[m - 1] = c
        out.append(ThetaPoly(coeffs))
    return out


def _build_f(n_max: int) -> list[list[JetPoly]]:
    rows = [[JetPoly.one()]]
    for i in range(n_max):
        prev = rows[i]
        # f_{i+1,j+1} = derive(f_{i,j+1}) + z1 f_{i,j}, one dot each
        rows.append([_ZERO] + [JetPoly.dot([(prev[j], _Z1)], prev[j + 1] if j < i else None)
                               for j in range(i + 1)])
    for i, (row, bell_row) in enumerate(zip(rows, _selfcheck_rows())):
        if row != bell_row:
            raise AssertionError(f"row f_({i},j) disagrees with its Bell closed form")
    return rows


class BellTable:
    """B_{n,k}(z1, ..., z_{n-k+1}) for 0 <= k <= n <= n_max, served by bell(n, k)."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        b = self._table = {(0, 0): JetPoly.one()}
        for n in range(1, n_max + 1):
            b[n, 0] = JetPoly.zero()
            for k in range(1, n + 1):
                b[n, k] = JetPoly.sum([b[n - i, k - 1].mul_z(i) * comb(n - 1, i - 1)
                                       for i in range(1, n - k + 2)])

    def bell(self, n: int, k: int) -> JetPoly:
        if not 0 <= k <= n <= self.n_max:
            raise ValueError(f"Bell indices out of range: ({n}, {k})")
        return self._table[n, k]


@cache
def _selfcheck_rows() -> list:
    """The Bell rows every f-table checks against, built once."""
    table = BellTable(SELFCHECK_TO)
    return [[table.bell(i, j) for j in range(i + 1)] for i in range(SELFCHECK_TO + 1)]


def top_coefficient_value(i: int, j: int):
    """Expected Theta^(i+j+1) coefficient of P~_{i,j}: (2i-1)!!(2j-1)!!/2^(i+j)."""
    return double_factorial_odd(i) * double_factorial_odd(j) / Q(2) ** (i + j)
