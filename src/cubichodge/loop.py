"""Assembly and solution of the genus-g slice of the loop equation.

For each genus g the equation reads, identically in Theta,

    sum_i L_i dH_g/dz_i = RHS_g,
    L_i = derive^i(Theta) + sum_{j=1}^i C(i, j) P_{j-1, i-j+1},

with RHS_1 = Theta^2/16 - (1/16 - s1/24) Theta =: T and for g >= 2

    RHS_g = sum_i derive^{i+2}(T) dH_{g-1}/dz_i
          + 1/2 sum_{i,j} P_{i+1,j+1} (d2 H_{g-1}/dz_i dz_j
                + sum_{k=1}^{g-1} dH_k/dz_i dH_{g-k}/dz_j).

Neither side forms a dressed P_{a,b} = sum_{k,l} f_{a,k} f_{b,l} P~_{k,l}
whole.  The total derivative is derive = (jets entry by entry) + z1 xi_euler,
so the recursions xi_euler P~_{k,l} = P~_{k+1,l} + P~_{k,l+1} and
f_{a+1,k} = derive(f_{a,k}) + z1 f_{a,k-1} give derive(P_{a,b}) =
P_{a+1,b} + P_{a,b+1}; Pascal's rule on the binomial sum then leaves one
new term per step:

    L_0 = Theta,   L_i = derive(L_{i-1}) + P_{0,i},
    P_{0,i} = sum_{l=1}^i f_{i,l} P~_{0,l},

so L_i reads row 0 of P~ only; it is one accumulator per pi_m, reduced
once (ThetaPoly.derive with the P_{0,i} pairs).  The quadratic part of
RHS_g contracts P~ against jet-only weights (PTensorTable.contract): it is
sum_{k,l} P~_{k,l} (F^T W F)_{k,l}, with W_{i+1,j+1} the bracket above for
i <= j, halved on the diagonal (P is symmetric, so the upper triangle
carries the whole sum; on the diagonal the terms k and g-k are one
product, formed once).  Up to genus g both sides read P~_{k,l} with
k + l <= 3g - 2 and f_{a,k} with a <= 3g - 2 only, so a solver's
PTensorTable, which holds P~ and its f-table (PTensorTable.f), is sized
once, for its genus_max.

Every Theta polynomial is held in the Stirling basis pi_m of theta.py, in
which T = (s1/24) pi_1 - pi_2/16.  pi_m has Theta degree m and no constant
term, and L_i, P~ and RHS_g have none, so the identity holds iff it holds
for each pi_m coefficient.  T has jet-free coefficients, so the linear
part of RHS_g forms no derivative: by the chain rule (Faa di Bruno;
Comtet, ch. 3)

    derive^n h = sum_j f_{n,j} xi_euler^j h,   xi_euler^j pi_m = (-1)^j pi_(m+j),

it is sum_j xi_euler^j(T) w_j with w_j = sum_i f_{i+2,j} dH_{g-1}/dz_i.
The pi_m rows m = 1..3g-1 form an invertible triangular system for the
gradient of H_g; all remaining rows must be matched identically.  Back
substitution on unit diagonals zeroes rows 1..3g-1 of LHS - RHS, and L_i has
Theta degree i + 1, so the remaining rows are RHS_g's alone: every solve
checks that RHS_g has no pi_m row above 3g-1.  LoopSolver.residual (verify
--suite loop-residual) forms the full residual on every row, from an RHS
built again.  H_g itself is recovered from the Euler
identity sum j z_j dH_g/dz_j = (2g-2) H_g, which needs dH_g/dz0 = 0 for
g >= 2, and for g = 1 from the closed form (1/24) log z1 + (s1/24) z0;
every partial of that body must equal the solved gradient, so the
gradient is closed.  No jet bound is declared: H_g carries z0..z_{3g-2} by
its own degree, and a cache record whose jets go past z_{3g-2} misses.  A
FreeEnergy and its cache record keep only that body; the gradient the next
genus reads is derived from it again.

The gradings, jet weight J (deg z_k = k) and dual weight D (deg z_k =
k - 1, deg s1 = 1, deg s3 = 3), bound every exponent a solve forms: in a
term without z0, z1's lies in [J - 2D, J] and every other one is at most D.
Each product and sum of the genus-g step is homogeneous in both, with J and
D at most 3g - 2 (the L_i, f and P~ factors) or with J <= 2g - 2 and
2D - J <= 4g - 2 (dH_k/dz_i, the weights W, the dressing passes, and row m
of RHS_g at (2g - 2, 3g - 1 - m)), so no exponent passes 4g - 2; dH_g/dz1
meets 4g - 3.  H_g reaches z1^-(4g - 4): a cache record with an |exponent|
above max(1, 4g - 4) misses, and `compute` checks a record's gradings
before a solve reads it.

A cache record is one file per genus: a first line holding the sha256 of
the rest of the file, then the record {version, genus, body, log_z1_coeff,
provenance} as sorted-key JSON.  The digest covers every stored byte, so a
torn or edited file misses, and `version` (CACHE_VERSION) names the
solver, the text forms and the P~ construction at once, so a record
written under any other one of them misses too.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from operator import mul

from . import textform
from .jets import JetPoly
from .linsolve import TriangularSystem
from .ptensors import CONSTRUCTION_VERSION, PTensorTable
from .ratio import Q, parse_q, qjson
from .sparse import SLOT_HALF, unpack, width
from .theta import ThetaPoly

SOLVER_VERSION = "loop-solver-v2"
CACHE_VERSION = f"{SOLVER_VERSION}|{textform.TEXT_FORM_VERSION}|{CONSTRUCTION_VERSION}"

GENUS_MAX = (SLOT_HALF + 1) // 4  # the largest genus_max with 4 genus_max - 2 < SLOT_HALF

# RHS_1, whose xi_euler images make the linear part of every RHS_g
T = ThetaPoly([JetPoly.monomial(Q(1, 24), (1, 0), {}), JetPoly.const(Q(-1, 16))])

H1_BODY = JetPoly.monomial(Q(1, 24), (1, 0), {0: 1})  # beside (1/24) log z1


class LoopEquationError(ArithmeticError):
    """The assembled loop equation is internally inconsistent."""


@dataclass
class FreeEnergy:
    """H_g = body (+ log_z1_coeff * log z1 at genus 1)."""
    genus: int
    body: JetPoly
    log_z1_coeff: object | None = None
    provenance: dict = field(default_factory=dict)

    @functools.cached_property
    def gradient(self) -> list:
        """dH_g/dz_i for i = 0..3g-2, derived from the body on first read."""
        grad = self.body.partials(3 * self.genus - 1)
        if self.log_z1_coeff is not None:
            grad[1] += JetPoly.z(1, -1) * self.log_z1_coeff
        return grad

    def max_jet_index(self) -> int:
        return 3 * self.genus - 2 if self.genus >= 1 else 0

    def body_text(self) -> str:
        return textform.free_energy_text(self.genus, self.body, self.log_z1_coeff)


class LoopSolver:
    def __init__(self, genus_max: int):
        """Its genus-g steps form exponents up to 4g - 2, its table up to
        3 genus_max - 1 (module docstring): ValueError past GENUS_MAX."""
        if not 1 <= genus_max <= GENUS_MAX:
            raise ValueError(f"genus_max {genus_max} outside 1..{GENUS_MAX}")
        self.genus_max = genus_max
        self.table = PTensorTable(3 * genus_max - 2)
        self._lhs: list[ThetaPoly] = []

    # -- coefficient assembly ---------------------------------------------

    def xi_t(self, w) -> ThetaPoly:
        """sum_j xi_euler^j(T) w_j for jet weights w."""
        pairs, tj = [], T
        for wj in w:
            if wj:
                pairs.append((tj, wj))
            tj = tj.xi_euler()
        return ThetaPoly.dot(pairs)

    def lhs_coefficient(self, i: int) -> ThetaPoly:
        """L_i, with L_0..L_(i-1) before it: L_k = derive(L_(k-1)) + P_{0,k}."""
        lhs = self._lhs
        f, ptilde = self.table.f, self.table.ptilde
        while len(lhs) <= i:
            k = len(lhs)
            # P_{0,k} = sum_l f_{k,l} P~_{0,l}; f_{k,0} = 0 for k >= 1
            lhs.append(lhs[-1].derive([(ptilde(0, l), f(k, l)) for l in range(1, k + 1)])
                       if k else ThetaPoly.theta())
        return lhs[i]

    def rhs_genus(self, g: int, lower) -> ThetaPoly:
        if g < 1:
            raise ValueError("genus must be >= 1")
        if g == 1:
            return self.xi_t([JetPoly.one()])
        if len(lower) < g - 1:
            raise ValueError(f"rhs_genus({g}) needs H_1..H_{g - 1}")
        grads = [None] + [fe.gradient for fe in lower[: g - 1]]
        top_prev = 3 * (g - 1) - 2
        f = self.table.f
        linear = self.xi_t([JetPoly.dot([(f(i + 2, j), grads[g - 1][i])
                                         for i in range(top_prev + 1)])
                            for j in range(top_prev + 3)])
        # W_{i+1,j+1} = w_ij for i <= j, halved on the diagonal; P is symmetric
        weights = {}
        one, half = JetPoly.one(), JetPoly.const(Q(1, 2))
        for i in range(top_prev + 1):
            for j in range(i, top_prev + 1):
                # on the diagonal the terms k and g-k are one product: formed
                # once for k < g-k, and halved with the d2 term for k = g/2
                w = JetPoly.dot([(grads[g - 1][i].partial(j), one if i < j else half)] + [
                    (grads[k][i], grads[g - k][j] if i < j or 2 * k < g else grads[k][j] * Q(1, 2))
                    for k in range(1, g if i < j else g // 2 + 1)
                    if i < len(grads[k]) and j < len(grads[g - k])])
                if w:
                    weights[i + 1, j + 1] = w
        return linear + self.table.contract(weights)

    # -- the solve -----------------------------------------------------------

    def solve_genus(self, g: int, lower) -> FreeEnergy:
        # row 0 of P~ and the f-table are built whole, for genus_max, on their
        # first read: read them before the clock starts, so that no genus's
        # wall_time carries the solver's one-time tables
        self.table.ptilde(0, 0)
        self.table.f(0, 0)
        t0 = time.monotonic()
        n = 3 * g - 1
        ell = [self.lhs_coefficient(i) for i in range(n)]
        rhs = self.rhs_genus(g, lower)
        gradient = TriangularSystem(ell, rhs).solve()
        # back substitution on unit diagonals zeroes rows 1..n of LHS - RHS,
        # and no L_i reaches a row above n: the rest of the residual is RHS_g there
        if rhs.degree > n:
            raise LoopEquationError(f"RHS_{g} has a pi_{rhs.degree} row above pi_{n} at genus {g}")
        fe = self.reconstruct(g, gradient)
        fe.provenance["wall_time"] = round(time.monotonic() - t0, 6)
        self._check_homogeneity(fe)
        return fe

    def residual(self, g: int, energies) -> ThetaPoly:
        """LHS - RHS of the epsilon^(2g-2) slice with computed energies plugged
        in, on every pi_m row; they obey the gradings, as `compute`'s do."""
        lhs = ThetaPoly.dot([(self.lhs_coefficient(i), gi)
                             for i, gi in enumerate(energies[g - 1].gradient) if gi])
        return lhs - self.rhs_genus(g, energies)

    # -- reconstruction -------------------------------------------------------

    def reconstruct(self, g: int, gradient) -> FreeEnergy:
        """Rebuild H_g from its gradient: the genus-1 closed form, or the Euler
        identity for g >= 2, whose body's partials must equal the gradient."""
        if g == 1:
            expect0 = JetPoly.monomial(Q(1, 24), (1, 0), {})
            expect1 = JetPoly.z(1, -1) * Q(1, 24)
            if gradient[0] != expect0 or gradient[1] != expect1:
                raise LoopEquationError("genus-1 gradient does not match the closed form")
            return FreeEnergy(1, H1_BODY, log_z1_coeff=Q(1, 24))

        if gradient[0]:
            raise LoopEquationError(f"dH_{g}/dz0 is nonzero")
        # the Euler body sum_j j z_j dH_g/dz_j / (2g-2), in one accumulator reduced once
        fe = FreeEnergy(g, JetPoly.dot([(grad, JetPoly.monomial(Q(j, 2 * g - 2), (0, 0), {j: 1}))
                                        for j, grad in enumerate(gradient) if j]))
        for i in range(len(gradient)):
            if fe.gradient[i] != gradient[i]:
                raise LoopEquationError(f"reconstructed body disagrees with gradient at z{i}")
        return fe

    def _check_homogeneity(self, fe: FreeEnergy) -> None:
        """The gradings a solve reading fe rests on, else LoopEquationError."""
        if fe.genus == 1:
            if fe.body != H1_BODY:
                raise LoopEquationError("H_1 is not its closed form")
            return
        g, terms = fe.genus, fe.body.terms
        n = max(width(terms), 3)
        # both gradings from one unpack per key: deg z_k = k; and deg z_k = k - 1,
        # deg s1 = 1, deg s3 = 3
        jet, dual = (0, 0, *range(n - 2)), (1, 3, *range(-1, n - 3))
        for key in terms:
            es = unpack(key, n)
            if es[2]:
                raise LoopEquationError(f"H_{g} has a z0 term")
            if sum(map(mul, jet, es)) != 2 * g - 2:
                raise LoopEquationError(f"H_{g} is not (2g-2)-homogeneous in jet weights")
            if sum(map(mul, dual, es)) != 3 * g - 3:
                raise LoopEquationError(f"H_{g} is not (3g-3)-homogeneous in the dual grading")

    # -- driving --------------------------------------------------------------

    def _check_genus(self, genus: int) -> None:
        if not 1 <= genus <= self.genus_max:
            raise ValueError(f"genus {genus} outside the solver's range 1..{self.genus_max}")

    def compute(self, genus: int, cache_dir: str | None = None):
        """H_1..H_genus, resuming from every valid record in the cache that
        keeps the gradings (module docstring); each other genus is solved."""
        self._check_genus(genus)
        energies: list[FreeEnergy] = []
        for g in range(1, genus + 1):
            fe = load_cached(cache_dir, g) if cache_dir else None
            if fe is not None:
                try:
                    self._check_homogeneity(fe)
                except LoopEquationError:
                    fe = None
            if fe is None:
                fe = self.solve_genus(g, energies)
                if cache_dir:
                    store_cached(cache_dir, fe)
            energies.append(fe)
        return energies

    def free_energy(self, genus: int, cache_dir: str | None = None) -> FreeEnergy:
        """H_genus alone: its cache record when that is valid, else the last
        of `compute(genus, cache_dir)`; lower genera are read only then."""
        self._check_genus(genus)
        if cache_dir:
            fe = load_cached(cache_dir, genus)
            if fe is not None:
                return fe
        return self.compute(genus, cache_dir)[-1]


# -- per-genus cache files ------------------------------------------------------


def cache_path(cache_dir: str, genus: int) -> str:
    return os.path.join(cache_dir, f"free_energy_g{genus}.json")


def store_cached(cache_dir: str, fe: FreeEnergy) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    record = {
        "version": CACHE_VERSION,
        "genus": fe.genus,
        "body": fe.body,
        "log_z1_coeff": qjson(fe.log_z1_coeff) if fe.log_z1_coeff is not None else None,
        "provenance": fe.provenance,
    }
    text = (textform.json_text(record, sort_keys=True) + "\n").encode()
    data = hashlib.sha256(text).hexdigest().encode() + b"\n" + text
    path = cache_path(cache_dir, fe.genus)
    # write beside the target and rename over it, so a torn write is never read back
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def load_cached(cache_dir: str, genus: int) -> FreeEnergy | None:
    """Return the cached FreeEnergy, or None when the first line is not the
    sha256 of the rest of the file, on a version mismatch, or on any
    corruption, such as a jet above z_(3g-2), an |exponent| above
    max(1, 4g - 4), a zero denominator or a log z1 coefficient at a genus
    other than 1 (or none at genus 1)."""
    path = cache_path(cache_dir, genus)
    try:
        with open(path, "rb") as fh:
            digest, _, text = fh.read().partition(b"\n")
        if digest != hashlib.sha256(text).hexdigest().encode():
            return None
        record = json.loads(text)
        if record["version"] != CACHE_VERSION:
            return None
        provenance = record["provenance"]
        # dict(provenance) would take a list of pairs too
        if not isinstance(provenance, dict):
            return None
        if record["genus"] != genus or (record["log_z1_coeff"] is None) == (genus == 1):
            return None
        body = textform.jet_from_json(record["body"], 3 * genus - 2, max(1, 4 * genus - 4))
        log_c = parse_q(record["log_z1_coeff"]) if genus == 1 else None
        return FreeEnergy(genus, body, log_c, dict(provenance, cache="hit"))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
            ZeroDivisionError):
        return None
