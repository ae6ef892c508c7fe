"""The benchmark's workloads: their CLI operations, set-up and output checks.

Every operation is one call of ``cubichodge.cli.main`` in this process.  Its
standard output is normalised and hashed, and the hash must equal the one
recorded in ``reference.json`` from the reference solver; a mismatch or a
nonzero exit code fails the operation.  A Virasoro grid call counts one
operation per commutator cell, and a ``FAIL`` cell fails that operation.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed

REFERENCE_PATH = Path(__file__).with_name("reference.json")

GENUS = 5
RG_GENERA = (2, 3, 4, 5)
HODGE_CASES = ((3, 4, 6), (4, 4, 6), (5, 3, 5))  # (genus, tmax, dmax)
RATIONAL_PAIRS = ((1, 2), (2, 3))
MMAX = 3
GRID_CELLS = (MMAX + 1) ** 2

# the cache directory an operation gets: none, a new empty one, or the primed one
NO_CACHE, FRESH_CACHE, PRIMED_CACHE = "none", "fresh", "primed"


@dataclass(frozen=True)
class Op:
    key: str            # name of the output in reference.json
    argv: tuple         # CLI arguments, without --cache-dir
    cache: str = NO_CACHE
    cells: int = 0      # commutator cells for a Virasoro grid, else 0

    @property
    def units(self) -> int:
        """Operations this call counts as."""
        return self.cells or 1


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    primes_cache: bool   # set-up solves through GENUS into a cache directory
    setup_reps: int      # set-up repetitions whose median is setup_s


def _compute_op(cache: str) -> Op:
    return Op(f"compute-g{GENUS}", ("compute", "--genus", str(GENUS)), cache)


def _rg_op(g: int) -> Op:
    return Op(f"rg-g{g}", ("rg", "--genus", str(g)), PRIMED_CACHE)


def _hodge_op(g: int, tmax: int, dmax: int) -> Op:
    argv = ("hodge", "--genus", str(g), "--tmax", str(tmax), "--dmax", str(dmax),
            "--integrals", "--format", "json")
    return Op(f"hodge-g{g}-t{tmax}-d{dmax}", argv, PRIMED_CACHE)


def _grid_op(k1: int, k2: int) -> Op:
    bound = 3 * (k1 + k2) + 2
    argv = ("virasoro", "--k1", str(k1), "--k2", str(k2), "--mmax", str(MMAX),
            "--degree", "3", "--index-bound", str(bound))
    return Op(f"virasoro-{k1}-{k2}", argv, cells=GRID_CELLS)


VERIFY_OP = Op("verify-bridge-series-oracles",
               ("verify", "--suite", "bridge", "--suite", "series-oracles"))

WORKLOADS = {
    w.name: w for w in (
        Workload("solve-cold", (_compute_op(FRESH_CACHE),), False, 5),
        Workload("tables-warm",
                 (_compute_op(PRIMED_CACHE),)
                 + tuple(_rg_op(g) for g in RG_GENERA)
                 + tuple(_hodge_op(*c) for c in HODGE_CASES),
                 True, 2),
        Workload("rational",
                 tuple(_grid_op(*p) for p in RATIONAL_PAIRS) + (VERIFY_OP,),
                 False, 5),
    )
}


def all_ops():
    """Each distinct operation once, in an order that fills the cache first."""
    seen = {}
    for w in WORKLOADS.values():
        for op in w.ops:
            seen.setdefault(op.key, op)
    return list(seen.values())


# -- output checks ---------------------------------------------------------------


_STATUS_LINE = re.compile(r"^(PASS|FAIL) ([A-Za-z0-9_-]+)")
_GRID_LINE = re.compile(r"^\[L_\d+, L_n\] n=0\.\.\d+: (.*)$")


def normalise(op: Op, text: str) -> str:
    """The part of an output that is compared: all of it, except that a
    verify run is reduced to its status and suite name per line."""
    if op.argv[0] != "verify":
        return text
    lines = [m.group(1) + " " + m.group(2)
             for m in map(_STATUS_LINE.match, text.splitlines()) if m]
    return "\n".join(lines) + "\n"


def output_hash(op: Op, text: str) -> str:
    return hashlib.sha256(normalise(op, text).encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["sha256"]


def grid_failures(text: str, cells: int) -> int:
    """Cells of a Virasoro grid that do not read 'pass' (missing ones count)."""
    seen = passed = 0
    for line in text.splitlines():
        m = _GRID_LINE.match(line)
        if m:
            words = m.group(1).split()
            seen += len(words)
            passed += sum(w == "pass" for w in words)
    return cells - passed if seen <= cells else cells


@dataclass
class OpResult:
    op: Op
    timing: speed.Timing
    rc: int
    digest: str
    failed: int
    stderr: str


def run_op(main, op: Op, cache_dir: str | None, expected: dict, sample: bool = True) -> OpResult:
    """One closed-loop call of the CLI entry point; the timing covers only the call.

    Without `sample` the timing is plain elapsed time (no reference loop runs)."""
    argv = list(op.argv) + (["--cache-dir", cache_dir] if cache_dir else [])
    out, err = io.StringIO(), io.StringIO()

    def call() -> int:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
        except Exception:  # a crash fails the operation; the run goes on
            err.write(traceback.format_exc())
            return 1

    if sample:
        rc, timing = speed.measure(call)
    else:
        t0 = time.perf_counter()
        rc = call()
        timing = speed.Timing(time.perf_counter() - t0, speed.NOMINAL_LOOP_S)
    text = out.getvalue()
    digest = output_hash(op, text)
    bad = rc != 0 or digest != expected.get(op.key)
    if op.cells:
        failed = max(grid_failures(text, op.cells), 1 if bad else 0)
    else:
        failed = 1 if bad else 0
    return OpResult(op, timing, rc, digest, failed, err.getvalue())


# -- set-up -----------------------------------------------------------------------


def import_program(src: Path):
    """Import cubichodge afresh from `src` and return its cli module."""
    for name in [n for n in sys.modules if n == "cubichodge" or n.startswith("cubichodge.")]:
        del sys.modules[name]
    cli = importlib.import_module("cubichodge.cli")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"cubichodge was imported from {cli.__file__}, not from {src}")
    return cli


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CUBICHODGE_CACHE"}
    env["PYTHONPATH"] = str(src)
    return env


PRIME_OP = _compute_op(PRIMED_CACHE)


def prime_cache(src: Path, work: Path, expected: dict) -> tuple[str, speed.Timing, bool]:
    """Solve through GENUS into a new cache directory in a child interpreter
    (prime.py), so the measured process's peak memory is that of the reads
    alone.  Returns the directory, the child's import-plus-solve timing and
    whether its output matched the reference."""
    cache = tempfile.mkdtemp(prefix="primed-", dir=work)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("prime.py")), str(src), cache],
        env=child_env(src), cwd=src.parent, capture_output=True, text=True, timeout=170)
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
        timing = speed.Timing(report["raw_s"], report["loop_s"])
        ok = proc.returncode == 0 and report["sha256"] == expected.get(PRIME_OP.key)
    except (IndexError, ValueError, KeyError):  # no report: fall back to the child's elapsed time
        timing, ok = speed.Timing(time.perf_counter() - t0, speed.NOMINAL_LOOP_S), False
    if not ok:
        sys.stderr.write(f"cache priming failed (exit {proc.returncode}): {proc.stderr[-2000:]}\n")
    return cache, timing, ok
