"""cubichodge benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  After set-up, whole passes over the workload's operations
(in a seed-dependent order) repeat until ``--seconds`` have been spent, and
each operation's output is checked against ``reference.json``.

The last line of standard output is the result object.  With ``--trace 0`` it
carries the end-to-end metrics, whose times are corrected for host contention
(speed.py); with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics of the traced passes, whose exact counts must
repeat from one traced pass to the next.  The line before it records the
environment and the raw samples.  See NOTES.md for what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_ok_ratio": "ratio"}
SELF_SUM_TOLERANCE = 0.01  # traced self times must cover the traced wall time to 1%


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Run:
    def __init__(self, workload: wl.Workload, seed: int, work: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work
        self.expected = wl.load_reference()
        self.cli = None
        self.primed = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_raw_s: dict[str, list[float]] = {}

    # -- set-up: import plus input preparation --------------------------------

    def setup(self) -> list[speed.Timing]:
        samples = []
        for _ in range(self.workload.setup_reps):
            gc.collect()
            self.cli, timing = speed.measure(lambda: wl.import_program(SRC))
            primed = None
            if self.workload.primes_cache:
                primed, solved, ok = wl.prime_cache(SRC, self.work, self.expected)
                timing = speed.total([timing, solved])
                if not ok:
                    self.problems.append("cache priming output did not match the reference")
            samples.append(timing)
            if self.primed:
                shutil.rmtree(self.primed)
            self.primed = primed
        return samples

    # -- one pass over the workload's operations -----------------------------

    def one_pass(self, tracer: tracing.Tracer | None = None, sample: bool = True) -> speed.Timing:
        """Run every operation once in a seeded order; `sample` runs the reference loop."""
        order = self.rng.sample(self.workload.ops, len(self.workload.ops))
        main = self.cli.main if tracer is None else tracer.root(self.cli.main)
        gc.collect()
        timings = []
        for op in order:
            fresh = None
            if op.cache == wl.FRESH_CACHE:
                fresh = tempfile.mkdtemp(prefix="fresh-", dir=self.work)
            cache = fresh if fresh else (self.primed if op.cache == wl.PRIMED_CACHE else None)
            res = wl.run_op(main, op, cache, self.expected, sample)
            if fresh:
                shutil.rmtree(fresh)
            timings.append(res.timing)
            self.op_raw_s.setdefault(op.key, []).append(res.timing.raw_s)
            self.attempted += op.units
            self.failed += res.failed
            if res.failed:
                self.problems.append(f"{op.key}: exit {res.rc}, sha256 {res.digest}, "
                                     f"{res.failed} failed; {res.stderr[-500:]}")
        return speed.total(timings)

    # -- timed phases -------------------------------------------------------------

    def timed(self, seconds: float) -> list[speed.Timing]:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.one_pass())
        return passes

    def traced(self, seconds: float):
        """Untraced and traced passes, U T T U T T ...; at least one U and two T.
        No reference loop runs, so both kinds are raw times."""
        untraced, traced = [], []
        start = time.perf_counter()
        step = 0
        while not untraced or len(traced) < 2 or time.perf_counter() - start < seconds:
            if step % 3 == 0:
                untraced.append(self.one_pass(sample=False).raw_s)
            else:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    wall = self.one_pass(tracer, sample=False).raw_s
                finally:
                    tracer.uninstall()
                traced.append((wall, tracer))
            step += 1
        return untraced, traced


def _trace_metrics(run: Run, untraced, traced) -> dict:
    counts = traced[0][1].exact_counts()
    for _, tracer in traced[1:]:
        other = tracer.exact_counts()
        if other != counts:
            diff = {k: (counts.get(k), other.get(k)) for k in counts.keys() | other.keys()
                    if counts.get(k) != other.get(k)}
            run.problems.append(f"exact counts differ between traced passes: {diff}")
    for wall, tracer in traced:
        covered = tracer.self_total()
        if not tracer.balanced() or abs(covered - wall) > SELF_SUM_TOLERANCE * wall:
            run.problems.append(f"layer self times sum to {covered:.6f} s, traced wall {wall:.6f} s")

    # times are medians over the traced passes; counts are exact, so the first pass's
    per_pass = [tracer.metrics() for _, tracer in traced]
    values = {name: statistics.median(m[name] for m in per_pass)
              if isinstance(v, float) else v for name, v in per_pass[0].items()}
    traced_wall = statistics.median(w for w, _ in traced)
    untraced_wall = statistics.median(untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": v, "unit": _layer_unit(name)} for name, v in values.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_pair"):
        return "ns"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def environment() -> dict:
    from cubichodge.ratio import HAVE_GMPY2

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": "gmpy2" if HAVE_GMPY2 else "fractions",
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "cubichodge" / "cli.py").is_file():
        print(f"error: no cubichodge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # a cache directory from the environment would turn cold solves into reads
    os.environ.pop("CUBICHODGE_CACHE", None)
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        run = Run(wl.WORKLOADS[args.workload], args.seed, work)
        setup = run.setup()
        info = {"setup_raw_s": [t.raw_s for t in setup]}
        if args.trace:
            untraced, traced = run.traced(args.seconds)
            metrics = _trace_metrics(run, untraced, traced)
            info.update(untraced_passes_raw_s=untraced, traced_passes_raw_s=[w for w, _ in traced])
        else:
            passes = run.timed(args.seconds)
            info.update(passes_raw_s=[t.raw_s for t in passes],
                        passes_loop_s=[t.loop_s for t in passes], ops_raw_s=run.op_raw_s)
            values = {
                "setup_s": statistics.median(t.corrected_s for t in setup),
                "wall_s": statistics.median(t.corrected_s for t in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ops_ok_ratio": (run.attempted - run.failed) / run.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        info = {"environment": environment(), "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, **info}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems and run.failed == 0
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
