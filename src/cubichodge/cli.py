"""Command-line interface: compute, rg, hodge, verify, virasoro.

Exit codes: 0 success, 1 internal assertion failure (with a machine-readable
JSON report on stderr), 2 usage error (checked before any solving, also for
a cache directory that is, or lies below, something other than a
directory, and a --dump-ptable path that is a directory or whose parent
directory does not exist).  Outputs are deterministic for a
given configuration and cache state.  The cache directory comes from
--cache-dir or, when that is absent, the CUBICHODGE_CACHE environment
variable, read on each call; no caching happens when neither is set.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NoReturn

from .commutators import commutator_grid, monomial_basis
from .jets import JetPoly
from .loop import GENUS_MAX, LoopSolver
from .oracles import (btilde11_closed_form_check, c_pair_float_check, chain_rule_check,
                      btilde11_integral_check, cy_power_sum_check, q_geometric_check,
                      row0_shift_oracle, specialization_bridge, v1_asymptotic_check)
from .outputs import faber_leading, h1_gap_check, intersection_table, r_poly
from .phiseries import DEGREE_MAX
from .ptensors import PTensorTable, top_coefficient_value
from .ratio import qstr
from .textform import free_energy_text, jet_latex, jet_text, json_text
from .virasoro import BtildeTable, RationalParams


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubichodge",
                                 description="Exact cubic Hodge free energies from the loop equation")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def common(p, formats=True):
        if formats:
            p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        p.add_argument("--cache-dir")

    p = command("compute", cmd_compute, "solve the loop equation up to a genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--dump-ptable", default=None, help="write the P-table JSON here")
    common(p)

    p = command("rg", cmd_rg, "gap polynomial R_g")
    p.add_argument("--genus", type=int, required=True)
    common(p)

    p = command("hodge", cmd_hodge, "table of cubic Hodge intersection data")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--tmax", type=_nonnegative, default=3, help="highest t index")
    p.add_argument("--dmax", type=_nonnegative, default=4, help="total degree truncation")
    p.add_argument("--integrals", action="store_true",
                   help="multiply by automorphism factorials (bracket values)")
    common(p)

    p = command("verify", cmd_verify, "run verification suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable); default all")
    p.add_argument("--genus", type=int, default=3)
    p.add_argument("--pairs", default="1,2;2,3;3,4",
                   help="rational-case pairs for the bridge suite, e.g. '1,2;2,3'")
    common(p, formats=False)

    p = command("virasoro", cmd_virasoro, "Virasoro commutator matrix for (K1, K2)")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--mmax", type=_nonnegative, default=3)
    p.add_argument("--degree", type=_nonnegative, default=3, help="monomial basis degree")
    p.add_argument("--index-bound", type=int, default=None,
                   help="highest s index in the basis (default 2h+2)")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ArithmeticError, ValueError, AssertionError, OSError) as exc:
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require_genus(args, minimum: int = 1) -> int:
    if args.genus < minimum:
        _usage_error(f"--genus must be >= {minimum}")
    if args.genus > GENUS_MAX:
        _usage_error(f"--genus must be <= {GENUS_MAX}")
    if args.cache_dir is None:
        args.cache_dir = os.environ.get("CUBICHODGE_CACHE")
    # a bad cache path would otherwise fail only when the first result is stored
    if args.cache_dir:
        blocker = _nearest_existing(args.cache_dir)
        if not os.path.isdir(blocker):
            _usage_error(f"cache directory {args.cache_dir!r}: {blocker!r} is not a directory")
    return args.genus


def _nearest_existing(path: str) -> str:
    """path itself if it exists, else its nearest existing ancestor."""
    path = os.path.abspath(path)
    while not os.path.exists(path) and os.path.dirname(path) != path:
        path = os.path.dirname(path)
    return path


def _emit_body(fe, fmt: str) -> str:
    if fmt == "text":
        return free_energy_text(fe.genus, fe.body, fe.log_z1_coeff)
    if fmt == "latex":
        head = "" if fe.genus != 1 else \
            rf"\frac{{{fe.log_z1_coeff.numerator}}}{{{fe.log_z1_coeff.denominator}}} \log z_1 + "
        return head + jet_latex(fe.body)
    data = {"genus": fe.genus, "body": fe.body,
            "log_z1_coeff": qstr(fe.log_z1_coeff) if fe.log_z1_coeff is not None else None}
    return json_text(data)


def cmd_compute(args) -> int:
    genus = _require_genus(args)
    if args.dump_ptable:
        if not os.path.isdir(os.path.dirname(args.dump_ptable) or "."):
            _usage_error(f"--dump-ptable {args.dump_ptable!r}: "
                         "its parent is not an existing directory")
        if os.path.isdir(args.dump_ptable):
            _usage_error(f"--dump-ptable {args.dump_ptable!r} is a directory")
    solver = LoopSolver(genus)
    print(_emit_body(solver.free_energy(genus, args.cache_dir), args.format))
    if args.dump_ptable:
        with open(args.dump_ptable, "w") as fh:
            fh.write(json_text(solver.table.dump_json(), sort_keys=True) + "\n")
    return 0


def cmd_rg(args) -> int:
    genus = _require_genus(args, minimum=2)
    solver = LoopSolver(genus)
    rg = r_poly(solver.free_energy(genus, args.cache_dir))
    if args.format == "text":
        print(f"R_{genus} = {jet_text(rg)}")
    elif args.format == "latex":
        print(jet_latex(rg))
    else:
        print(json_text({"genus": genus, "rg": rg}))
    return 0


def cmd_hodge(args) -> int:
    genus = _require_genus(args)
    # --tmax names a t slot, not an exponent, and the table stops at t_{3g-3+dmax}
    if args.dmax > DEGREE_MAX:
        _usage_error(f"--dmax must be <= {DEGREE_MAX}")
    solver = LoopSolver(genus)
    fe = solver.free_energy(genus, args.cache_dir)
    rows = intersection_table(fe, args.tmax, args.dmax, normalized=args.integrals)
    if args.format == "json":
        data = [{"indices": list(idx), "coefficient": c} for idx, c in rows]
        print(json_text({"genus": genus, "table": data}))
        return 0
    label = "bracket" if args.integrals else "coefficient"
    width = max((len(_indices_text(idx)) for idx, _ in rows), default=8)
    print(f"# genus {genus}: t-monomial -> {label}")
    emit = jet_latex if args.format == "latex" else jet_text
    for idx, c in rows:
        print(f"{_indices_text(idx):<{width}}  {emit(c)}")
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
    genus = _require_genus(args)
    try:
        pairs = _parse_pairs(args.pairs)
    except ValueError as exc:
        _usage_error(f"bad --pairs: {exc}")

    @functools.cache
    def solved():
        solver = LoopSolver(genus)
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
            grad = fe.gradient
            if grad[0]:
                return False, f"dH_{fe.genus}/dz0 != 0"
            euler = JetPoly.sum([grad[j].mul_z(j) * j for j in range(1, len(grad))])
            if euler != fe.body * (2 * fe.genus - 2):
                return False, f"Euler identity fails at genus {fe.genus}"
        return True, None

    def gap():
        _, energies = solved()
        if not h1_gap_check(energies[0]):
            return False, "H_1 does not collapse to ((s1 - 1)/24) log x"
        for fe in energies[1:]:
            g = fe.genus
            try:
                rg = r_poly(fe)
            except AssertionError as exc:
                return False, str(exc)
            top = JetPoly({key: c for key, c in rg.items() if key[0] + 3 * key[1] == 3 * g - 3})
            if top != faber_leading(g):
                return False, f"top part of R_{g} differs from the Faber form"
        return True, None

    def ptable():
        table = PTensorTable(10)
        for i in range(11):
            for j in range(11 - i):
                tp = table.ptilde(i, j)
                if tp != table.ptilde(j, i):
                    return False, f"P~({i},{j}) asymmetric"
                if tp.degree != i + j + 1:
                    return False, f"P~({i},{j}) degree {tp.degree}"
                if tp.max_jet_index() >= 0:
                    return False, f"P~({i},{j}) carries jets"
                if tp.powers()[-1] != JetPoly.const(top_coefficient_value(i, j)):
                    return False, f"P~({i},{j}) top coefficient"
        return True, None

    def series_oracles():
        ok, detail = q_geometric_check()
        if not ok:
            return False, f"Q oracle: {detail}"
        ok, detail = row0_shift_oracle()
        if not ok:
            return False, f"xi oracle: {detail}"
        ok, detail = v1_asymptotic_check(pairs)
        if not ok:
            return False, f"V1 asymptotics {detail}"
        return True, None

    def bridge():
        table = PTensorTable(4)
        for params in pairs:
            # one B~ table per pair: each c-pairing is computed once for all four checks
            bt = BtildeTable(params, 10)
            ok, detail = specialization_bridge(bt, table)
            if not ok:
                return False, detail
            ok, detail = btilde11_closed_form_check(bt)
            if not ok:
                return False, f"B~_11 closed form: {detail}"
            ok, detail = btilde11_integral_check(bt)
            if not ok:
                return False, f"integral identity: {detail}"
            ok, detail = c_pair_float_check(bt)
            if not ok:
                return False, f"c-pair floats: {detail}"
        return True, None

    return {
        "loop-residual": loop_residual,
        "gradient": gradient,
        "gap": gap,
        "ptable": ptable,
        "series-oracles": series_oracles,
        "bell": chain_rule_check,
        "power-sum": cy_power_sum_check,
        "bridge": bridge,
    }


def cmd_verify(args) -> int:
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
    basis = monomial_basis(params, bound, args.degree)
    print(f"# (K1,K2)=({params.k1},{params.k2}), basis size {len(basis)}, "
          f"degree <= {args.degree}, s-indices <= {bound}")
    grid = commutator_grid(params, basis, args.mmax, k_cut)
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
