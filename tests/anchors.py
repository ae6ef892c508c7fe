"""Anchors above the tier-1 range: the first 16 hex digits of the sha256 of
H_g (`FreeEnergy.body_text()`) and of R_g (`jet_text(r_poly(H_g))`), the
Hodge table of each H_g by both routes, and the JSON of that table.

    python tests/anchors.py --genus 10

solves H_1..H_G with one LoopSolver(G), in the process it starts, writes
each H_g as a cache record into a temporary directory and reads it back,
prints one line per genus from 4 to G, and exits 1 if the hashes of any
body read back differ from ANCHORS, if its `intersection_table` at
(tmax, dmax) = TABLE_SIZE, raw or in bracket form, differs from the
reference route (`reference_tables`), or if `json_text` writes either
table otherwise than `json.dumps(..., indent=1)` writes its `jet_json`
rows (`json_agrees`).  The table reaches genus 11.  On a
shared 2-vCPU host a solve through genus 10 takes about a minute, and
through genus 11 a few minutes and some 500 MB.

pytest does not collect this file: tests/test_loop.py runs `check` through
genus 5 and ties H_4..H_7 and R_4..R_7 to its full frozen hashes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from math import factorial, prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubichodge import LoopSolver  # noqa: E402
from cubichodge.loop import load_cached, store_cached  # noqa: E402
from cubichodge.outputs import (dimension_check, hodge_expand, intersection_table,  # noqa: E402
                                r_poly)
from cubichodge.textform import jet_json, jet_text, json_text  # noqa: E402

# genus: (H_g, R_g)
ANCHORS = {
    4: ("e3f13ea5b003edb7", "4d655db7a66ff73f"),
    5: ("dfc56e79a800c9a5", "72315a03fd9f433b"),
    6: ("e2f1bb4d7ac9dddc", "07e0405be557ebed"),
    7: ("c26bac7bc89a07c7", "480e34b18140912a"),
    8: ("999b603c2a8e884b", "48e250ff054cb61e"),
    9: ("23b8450a40c8fc28", "ffb3c5a62342e7dd"),
    10: ("5c2e4c292e2a090e", "0e2754260efcebe5"),
    11: ("ee7fd2c0dd71a67e", "dfab2f4e0910145a"),
}


# (tmax, dmax) of the table compared by both routes at every genus checked
TABLE_SIZE = (4, 6)


def reference_tables(fe, n_max: int, d_max: int) -> tuple[list, list]:
    """The raw and the bracket-form rows of H_g's table by the reference
    route: the full expansion `hodge_expand`, `dimension_check` on every
    row, the coefficients read off, sorted as `intersection_table` sorts."""
    n_max = min(n_max, 3 * fe.genus - 3 + d_max)
    series = hodge_expand(fe, n_max, d_max)
    ok, violation = dimension_check(fe.genus, series)
    if not ok:
        raise AssertionError(f"H_{fe.genus} table breaks the dimension constraint at {violation}")
    tables = []
    for scale in (None, lambda key: prod(factorial(e) for e in key)):
        coefficients = series.coefficients(scale)
        tables.append([(tuple(i for i, e in enumerate(key) for _ in range(e)), coefficients[key])
                       for key in sorted(coefficients, key=lambda k: (sum(k), k))])
    return tables[0], tables[1]


def tables_agree(fe, n_max: int, d_max: int) -> tuple[bool, bool]:
    """(`intersection_table` equals the reference route, raw and
    normalised; `json_agrees` holds for both tables)."""
    tables = (intersection_table(fe, n_max, d_max),
              intersection_table(fe, n_max, d_max, normalized=True))
    return (tables == reference_tables(fe, n_max, d_max),
            all(json_agrees(fe.genus, rows) for rows in tables))


def json_agrees(genus: int, rows: list) -> bool:
    """`json_text` writes the table as `hodge --format json` does, each
    coefficient a JetPoly, byte for byte as `json.dumps(..., indent=1)`
    writes it with each coefficient's `jet_json` rows."""
    def table(coefficient):
        return {"genus": genus, "table": [{"indices": list(idx), "coefficient": coefficient(c)}
                                          for idx, c in rows]}

    return json_text(table(lambda c: c)) == json.dumps(table(jet_json), indent=1)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(genus: int, emit=None) -> tuple[bool, list[str]]:
    """Solve through `genus`, pass each H_g through a cache record, and
    compare H_g, R_g read back for g = 4..genus with ANCHORS: (all equal,
    one line per genus); each line also goes to `emit` as soon as its genus
    is solved."""
    if not 4 <= genus <= max(ANCHORS):
        raise ValueError(f"anchors cover genus 4..{max(ANCHORS)}")
    solver, energies, lines, ok = LoopSolver(genus), [], [], True
    with tempfile.TemporaryDirectory() as cache:
        for g in range(1, genus + 1):
            t0 = time.monotonic()
            fe = solver.solve_genus(g, energies)
            elapsed = time.monotonic() - t0
            energies.append(fe)
            store_cached(cache, fe)
            back = load_cached(cache, g)
            if g < 4:
                continue
            got = ((_digest(back.body_text()), _digest(jet_text(r_poly(back))))
                   if back else ("cache miss", "cache miss"))
            verdicts = ["ok" if a == b else f"MISMATCH (want {b})" for a, b in zip(got, ANCHORS[g])]
            same, written = tables_agree(back, *TABLE_SIZE) if back else (False, False)
            ok = ok and got == ANCHORS[g] and same and written
            lines.append(f"genus {g}: H_{g} {got[0]} {verdicts[0]}, R_{g} {got[1]} {verdicts[1]}"
                         f", table {TABLE_SIZE} {'ok' if same else 'MISMATCH'}"
                         f", json {'ok' if written else 'MISMATCH'}"
                         f", solved in {elapsed:.2f} s")
            if emit:
                emit(lines[-1])
    return ok, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--genus", type=int, required=True, choices=sorted(ANCHORS))
    args = ap.parse_args(argv)
    ok, _ = check(args.genus, emit=lambda line: print(line, flush=True))
    print("all anchors hold" if ok else "ANCHOR MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
