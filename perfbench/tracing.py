"""Span wrappers installed from outside around cubichodge's layer boundaries.

Each wrapped callable is replaced where callers look it up (a module global,
a name imported into ``cubichodge.cli``, or a class attribute), so nested
calls nest their spans.  A layer's self time is its spans' durations minus
the durations of the wrapped spans directly inside them, which makes the
self times of all layers plus the root add up to the root spans.

Everything is kept in memory and read after the pass; ``uninstall`` puts the
original callables back.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

ROOT = "cli"

# (module, class or None, attribute, layer)
SPANS = (
    ("cubichodge.ptensors", None, "_build_row0", "ptensors.row0"),
    ("cubichodge.ptensors", "PTensorTable", "ptilde", "ptensors.ptilde"),
    ("cubichodge.ptensors", "PTensorTable", "p", "ptensors.dress"),
    ("cubichodge.linsolve", "TriangularSystem", "solve", "linsolve.solve"),
    ("cubichodge.linsolve", "TriangularSystem", "verify", "linsolve.verify"),
    ("cubichodge.loop", "LoopSolver", "lhs_coefficient", "loop.lhs"),
    ("cubichodge.loop", "LoopSolver", "rhs_genus", "loop.rhs"),
    ("cubichodge.loop", "LoopSolver", "solve_genus", "loop.solve_self"),
    ("cubichodge.loop", "LoopSolver", "reconstruct", "loop.reconstruct"),
    ("cubichodge.loop", "LoopSolver", "_check_homogeneity", "loop.grading"),
    ("cubichodge.loop", None, "store_cached", "loop.cache_store"),
    ("cubichodge.loop", None, "load_cached", "loop.cache_load"),
    ("cubichodge.textform", None, "jet_from_json", "textform.parse"),
    ("cubichodge.textform", None, "jet_json", "textform.emit"),
    ("cubichodge.cli", None, "free_energy_text", "textform.emit"),
    ("cubichodge.cli", None, "jet_json", "textform.emit"),
    ("cubichodge.cli", None, "jet_latex", "textform.emit"),
    ("cubichodge.cli", None, "sigma_json", "textform.emit"),
    ("cubichodge.cli", None, "sigma_text", "textform.emit"),
    ("cubichodge.outputs", None, "v_series", "outputs.v_series"),
    ("cubichodge.outputs", None, "hodge_expand", "outputs.hodge_expand"),
    ("cubichodge.cli", None, "intersection_table", "outputs.table"),
    ("cubichodge.cli", None, "r_poly", "outputs.r_poly"),
    ("cubichodge.cli", None, "monomial_basis", "virasoro.basis"),
    ("cubichodge.cli", None, "commutator_check", "virasoro.commutator_check"),
    ("cubichodge.virasoro", None, "virasoro_apply", "virasoro.apply"),
    ("cubichodge.cli", None, "q_geometric_check", "oracles.series"),
    ("cubichodge.cli", None, "row0_shift_oracle", "oracles.series"),
    ("cubichodge.cli", None, "v1_asymptotic_check", "oracles.series"),
    ("cubichodge.cli", None, "specialization_bridge", "oracles.bridge"),
    ("cubichodge.cli", None, "btilde11_closed_form_check", "oracles.bridge"),
    ("cubichodge.cli", None, "btilde11_integral_check", "oracles.bridge"),
    ("cubichodge.cli", None, "c_pair_float_check", "oracles.bridge"),
)

# per-layer metric -> (layer, what): "self" seconds or "calls"
LAYER_METRICS = {
    "ptensors.row0_s": ("ptensors.row0", "self"),
    "ptensors.row0_calls": ("ptensors.row0", "calls"),
    "ptensors.ptilde_s": ("ptensors.ptilde", "self"),
    "ptensors.dress_s": ("ptensors.dress", "self"),
    "ptensors.p_calls": ("ptensors.dress", "calls"),
    "jets.mul_calls": ("jets.mul", "calls"),
    "jets.mul_s": ("jets.mul", "self"),
    "linsolve.solve_s": ("linsolve.solve", "self"),
    "linsolve.verify_s": ("linsolve.verify", "self"),
    "loop.lhs_s": ("loop.lhs", "self"),
    "loop.rhs_s": ("loop.rhs", "self"),
    "loop.solve_self_s": ("loop.solve_self", "self"),
    "loop.reconstruct_s": ("loop.reconstruct", "self"),
    "loop.grading_s": ("loop.grading", "self"),
    "loop.cache_store_s": ("loop.cache_store", "self"),
    "loop.cache_load_s": ("loop.cache_load", "self"),
    "textform.parse_s": ("textform.parse", "self"),
    "textform.emit_s": ("textform.emit", "self"),
    "outputs.v_series_s": ("outputs.v_series", "self"),
    "outputs.hodge_expand_s": ("outputs.hodge_expand", "self"),
    "outputs.table_s": ("outputs.table", "self"),
    "outputs.r_poly_s": ("outputs.r_poly", "self"),
    "virasoro.commutator_check_s": ("virasoro.commutator_check", "self"),
    "virasoro.apply_calls": ("virasoro.apply", "calls"),
    "virasoro.apply_s": ("virasoro.apply", "self"),
    "virasoro.basis_s": ("virasoro.basis", "self"),
    "oracles.bridge_s": ("oracles.bridge", "self"),
    "oracles.series_s": ("oracles.series", "self"),
    "cli.self_s": (ROOT, "self"),
}

# exact work counters kept beside the span call counts
COUNTERS = ("jets.mul_term_pairs", "loop.cache_hits", "loop.h_terms",
            "loop.coef_max_bits", "outputs.tseries_mul_calls", "virasoro.basis_size")


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.energies: list = []
        self.missing: list[str] = []
        self._saved: list = []

    # -- spans --------------------------------------------------------------

    def wrap(self, layer: str, fn, only_if=None, on_result=None):
        """`fn` inside a span named `layer`; `only_if(args)` false skips the span."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if only_if is not None and not only_if(args):
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for module, cls, attr, layer in SPANS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._hooked(layer))

        jets = importlib.import_module("cubichodge.jets")
        poly = jets.JetPoly
        self._patch(poly, "__mul__", lambda f: self.wrap(
            "jets.mul", f, only_if=lambda a: isinstance(a[1], poly),
            on_result=self._count_pairs))

        outputs = importlib.import_module("cubichodge.outputs")
        for attr in ("__mul__", "__rmul__"):
            self._patch(outputs.TSeries, attr,
                        lambda f: self.counted("outputs.tseries_mul_calls", f))
        if self.missing:
            sys.stderr.write("trace: not found, reads 0: " + ", ".join(self.missing) + "\n")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _hooked(self, layer: str):
        hooks = {
            "loop.solve_self": self._keep_energy,
            "loop.cache_load": self._count_hit,
            "virasoro.basis": self._count_basis,
        }
        return lambda f: self.wrap(layer, f, on_result=hooks.get(layer))

    # -- result hooks (run outside the span) ------------------------------------

    def _count_pairs(self, args, result):
        self.counts["jets.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _keep_energy(self, args, fe):
        self.energies.append(fe)

    def _count_hit(self, args, fe):
        if fe is not None:
            self.counts["loop.cache_hits"] += 1
            self.energies.append(fe)

    def _count_basis(self, args, basis):
        self.counts["virasoro.basis_size"] += len(basis)

    # -- results ------------------------------------------------------------------

    def root(self, fn):
        return self.wrap(ROOT, fn)

    def balanced(self) -> bool:
        return not self._stack

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def exact_counts(self) -> dict:
        """Every count the trace makes: span calls and work counters."""
        counts = {f"calls:{k}": v for k, v in sorted(self.calls.items())}
        counts.update(self._work_counts())
        return counts

    def _work_counts(self) -> dict:
        out = {name: self.counts.get(name, 0) for name in COUNTERS}
        if self.energies:
            top = max(self.energies, key=lambda fe: fe.genus)
            out["loop.h_terms"] = len(top.body.terms)
            out["loop.coef_max_bits"] = max(
                max(int(c.numerator).bit_length(), int(c.denominator).bit_length())
                for fe in self.energies for c in fe.body.terms.values())
        return out

    def metrics(self) -> dict:
        """Per-layer values of this pass, by metric name."""
        out = {}
        for name, (layer, what) in LAYER_METRICS.items():
            out[name] = self.self_s.get(layer, 0.0) if what == "self" else self.calls.get(layer, 0)
        out.update(self._work_counts())
        pairs = out["jets.mul_term_pairs"]
        out["jets.mul_ns_per_pair"] = out["jets.mul_s"] * 1e9 / pairs if pairs else 0.0
        return out
