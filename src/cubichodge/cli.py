"""Command-line interface: compute, rg, hodge, verify, virasoro.

Exit codes: 0 success, 1 internal assertion failure (with a machine-readable
JSON report on stderr), 2 usage error.  Outputs are deterministic for a
given configuration and cache state.  The cache directory comes from
--cache-dir or the CUBICHODGE_CACHE environment variable; no caching
happens when neither is set.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NoReturn

from .commutators import commutator_grid
from .jets import JetPoly
from .loop import LoopSolver
from .oracles import (btilde11_closed_form_check, c_pair_float_check, chain_rule_check,
                      btilde11_integral_check, cy_power_sum_check, q_geometric_check,
                      row0_shift_oracle, specialization_bridge, v1_asymptotic_check)
from .outputs import intersection_table, r_poly
from .ptensors import PTensorTable, top_coefficient_value
from .ratio import qstr
from .textform import free_energy_text, jet_json, jet_latex, sigma_json, sigma_text
# commutator_check is not called here; it stays importable as cli.commutator_check,
# the name perfbench/tracing.py wraps
from .virasoro import (BtildeTable, RationalParams, commutator_check,  # noqa: F401
                       monomial_basis)


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubichodge",
                                 description="Exact cubic Hodge free energies from the loop equation")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cutoff", type=int, default=None, help="jet cutoff override")
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        p.add_argument("--cache-dir", default=os.environ.get("CUBICHODGE_CACHE"))

    p = sub.add_parser("compute", help="solve the loop equation up to a genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--dump-ptable", default=None, help="write the P-table JSON here")
    common(p)

    p = sub.add_parser("rg", help="gap polynomial R_g")
    p.add_argument("--genus", type=int, required=True)
    common(p)

    p = sub.add_parser("hodge", help="table of cubic Hodge intersection data")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--tmax", type=_nonnegative, default=3, help="highest t index")
    p.add_argument("--dmax", type=_nonnegative, default=4, help="total degree truncation")
    p.add_argument("--integrals", action="store_true",
                   help="multiply by automorphism factorials (bracket values)")
    common(p)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable); default all")
    p.add_argument("--genus", type=int, default=3)
    p.add_argument("--pairs", default="1,2;2,3;3,4",
                   help="rational-case pairs for the bridge suite, e.g. '1,2;2,3'")
    common(p)

    p = sub.add_parser("virasoro", help="Virasoro commutator matrix for (K1, K2)")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--mmax", type=_nonnegative, default=3)
    p.add_argument("--degree", type=_nonnegative, default=3, help="monomial basis degree")
    p.add_argument("--index-bound", type=int, default=None,
                   help="highest s index in the basis (default 2h+2)")
    common(p)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ArithmeticError, ValueError, AssertionError, OSError) as exc:
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "compute":
        return cmd_compute(args)
    if cmd == "rg":
        return cmd_rg(args)
    if cmd == "hodge":
        return cmd_hodge(args)
    if cmd == "verify":
        return cmd_verify(args)
    if cmd == "virasoro":
        return cmd_virasoro(args)
    raise ValueError(f"unknown command {cmd}")


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require_genus(args, minimum: int = 1) -> int:
    if args.genus < minimum:
        _usage_error(f"--genus must be >= {minimum}")
    _require_cutoff(args, args.genus)
    return args.genus


def _require_cutoff(args, genus: int) -> None:
    # H_g reaches z_{3g-2}; a smaller jet cutoff cannot hold it
    need = 3 * genus - 2
    if args.cutoff is not None and args.cutoff < need:
        _usage_error(f"--cutoff must be >= 3g-2 = {need} for genus {genus}")


def _solver(args, genus: int) -> LoopSolver:
    return LoopSolver(genus, cutoff=args.cutoff)


def _emit_body(fe, fmt: str) -> str:
    if fmt == "text":
        return free_energy_text(fe.genus, fe.body, fe.log_z1_coeff)
    if fmt == "latex":
        head = "" if fe.genus != 1 else \
            rf"\frac{{{fe.log_z1_coeff.numerator}}}{{{fe.log_z1_coeff.denominator}}} \log z_1 + "
        return head + jet_latex(fe.body)
    data = {"genus": fe.genus, "body": jet_json(fe.body),
            "log_z1_coeff": qstr(fe.log_z1_coeff) if fe.log_z1_coeff is not None else None}
    return json.dumps(data, indent=1)


def cmd_compute(args) -> int:
    genus = _require_genus(args)
    solver = _solver(args, genus)
    energies = solver.compute(genus, cache_dir=args.cache_dir)
    print(_emit_body(energies[-1], args.format))
    if args.dump_ptable:
        with open(args.dump_ptable, "w") as fh:
            json.dump(solver.table.dump_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_rg(args) -> int:
    genus = _require_genus(args, minimum=2)
    solver = _solver(args, genus)
    energies = solver.compute(genus, cache_dir=args.cache_dir)
    rg = r_poly(energies[-1])
    if args.format == "text":
        print(f"R_{genus} = {sigma_text(rg)}")
    elif args.format == "latex":
        print(jet_latex(JetPoly.from_sigma(rg, 1)))
    else:
        print(json.dumps({"genus": genus, "rg": sigma_json(rg)}, indent=1))
    return 0


def cmd_hodge(args) -> int:
    genus = _require_genus(args)
    solver = _solver(args, genus)
    fe = solver.compute(genus, cache_dir=args.cache_dir)[-1]
    rows = intersection_table(fe, args.tmax, args.dmax, normalized=args.integrals)
    if args.format == "json":
        data = [{"indices": list(idx), "coefficient": sigma_json(sp)} for idx, sp in rows]
        print(json.dumps({"genus": genus, "table": data}, indent=1))
        return 0
    label = "bracket" if args.integrals else "coefficient"
    width = max((len(_indices_text(idx)) for idx, _ in rows), default=8)
    print(f"# genus {genus}: t-monomial -> {label}")
    for idx, sp in rows:
        if args.format == "latex":
            print(f"{_indices_text(idx):<{width}}  {jet_latex(JetPoly.from_sigma(sp, 1))}")
        else:
            print(f"{_indices_text(idx):<{width}}  {sigma_text(sp)}")
    return 0


def _indices_text(idx) -> str:
    return "(" + ",".join(str(i) for i in idx) + ")" if idx else "()"


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(";"):
        k1, _, k2 = chunk.partition(",")
        pairs.append(RationalParams(int(k1), int(k2)))
    return pairs


def _verify_suites(args):
    genus = max(args.genus, 1)
    try:
        pairs = _parse_pairs(getattr(args, "pairs", "1,2;2,3;3,4"))
    except ValueError as exc:
        _usage_error(f"bad --pairs: {exc}")

    @functools.cache
    def solved():
        solver = _solver(args, genus)
        return solver, solver.compute(genus, cache_dir=args.cache_dir)

    def loop_residual():
        solver, energies = solved()
        for g in range(1, genus + 1):
            if solver.residual(g, energies):
                return False, f"nonzero residual at genus {g}"
        return True, None

    def gradient():
        _, energies = solved()
        for fe in energies[1:]:
            if fe.gradient[0]:
                return False, f"dH_{fe.genus}/dz0 != 0"
            for i in range(len(fe.gradient)):
                if fe.body.partial(i) != fe.gradient[i]:
                    return False, f"genus {fe.genus} gradient mismatch at z{i}"
        return True, None

    def ptable():
        table = PTensorTable(12)
        table.ensure_row0(10)
        for i in range(11):
            for j in range(11 - i):
                tp = table.ptilde(i, j)
                if tp != table.ptilde(j, i):
                    return False, f"P~({i},{j}) asymmetric"
                if tp.degree > i + j + 1:
                    return False, f"P~({i},{j}) degree {tp.degree}"
                if tp.max_jet_index() >= 0:
                    return False, f"P~({i},{j}) carries jets"
                top = tp.coeff(i + j + 1).as_sigma()
                if top != top_coefficient_value(i, j):
                    return False, f"P~({i},{j}) top coefficient"
        return True, None

    def series_oracles():
        ok, detail = q_geometric_check(8)
        if not ok:
            return False, f"Q oracle: {detail}"
        table = PTensorTable(3)
        ok, detail = row0_shift_oracle(table, 8, 8)
        if not ok:
            return False, f"xi oracle: {detail}"
        for params in pairs:
            ok, detail = v1_asymptotic_check(params)
            if not ok:
                return False, f"V1 asymptotics ({params.k1},{params.k2}): {detail}"
        return True, None

    def bell_suite():
        return chain_rule_check(8)

    def power_sum_suite():
        return cy_power_sum_check()

    def bridge():
        table = PTensorTable(3)
        for params in pairs:
            # one B~ table per pair: each c-pairing is computed once for all four checks
            btilde = BtildeTable(params, 10)
            ok, detail = specialization_bridge(params, table, 4, 8, btilde)
            if not ok:
                return False, detail
            ok, detail = btilde11_closed_form_check(params, btilde=btilde)
            if not ok:
                return False, f"B~_11 closed form: {detail}"
            ok, detail = btilde11_integral_check(params, btilde=btilde)
            if not ok:
                return False, f"integral identity: {detail}"
            ok, detail = c_pair_float_check(params, pairs=btilde.pairs)
            if not ok:
                return False, f"c-pair floats: {detail}"
        return True, None

    return {
        "loop-residual": loop_residual,
        "gradient": gradient,
        "ptable": ptable,
        "series-oracles": series_oracles,
        "bell": bell_suite,
        "power-sum": power_sum_suite,
        "bridge": bridge,
    }


def cmd_verify(args) -> int:
    _require_cutoff(args, max(args.genus, 1))
    suites = _verify_suites(args)
    names = args.suite or list(suites)
    bad = [n for n in names if n not in suites]
    if bad:
        _usage_error(f"unknown suite(s) {', '.join(bad)}; available: {', '.join(suites)}")
    failures = 0
    for name in names:
        ok, detail = suites[name]()
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    return 1 if failures else 0


def cmd_virasoro(args) -> int:
    try:
        params = RationalParams(args.k1, args.k2)
    except ValueError as exc:
        _usage_error(str(exc))
    bound = args.index_bound if args.index_bound is not None else 2 * params.h + 2
    # the grid applies L_{m+n} for m != n <= mmax, so the operator index reaches
    # h(2 mmax - 1) (0 when mmax = 0) and must fit under k_cut = bound + 2h mmax
    minimum = -params.h if args.mmax else 0
    if bound < minimum:
        _usage_error(f"--index-bound must be >= {minimum} for h = {params.h}, --mmax {args.mmax}")
    k_cut = bound + params.h * 2 * args.mmax
    basis = monomial_basis(params, k_cut, bound, args.degree)
    print(f"# (K1,K2)=({params.k1},{params.k2}), basis size {len(basis)}, "
          f"degree <= {args.degree}, s-indices <= {bound}")
    grid = commutator_grid(params, basis, args.mmax)
    failures = [(m, n, term) for (m, n), term in grid.items() if term is not None]
    for m in range(args.mmax + 1):
        cells = ["pass" if grid[m, n] is None else "FAIL" for n in range(args.mmax + 1)]
        print(f"[L_{m}, L_n] n=0..{args.mmax}: " + " ".join(cells))
    if failures:
        m, n, term = failures[0]
        print(f"{len(failures)} commutator cell(s) failed; "
              f"first counterexample at (m,n)=({m},{n}): {term}")
        return 1
    print("all commutators pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
