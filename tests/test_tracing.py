"""The benchmark's span wrappers still find the program's layers, and its
traced passes count alike.

perfbench/tracing.py patches module globals, names imported into
cubichodge.cli and class attributes by name; a renamed or deleted module or
class makes `Tracer.install` raise, which otherwise shows only in traced
benchmark runs.  A traced benchmark run also fails when two traced passes
of a workload make different exact counts, as state kept from one CLI call
to the next would.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

import cubichodge.cli  # noqa: E402
from cubichodge.ptensors import PTensorTable  # noqa: E402

# spans whose targets no longer exist; a traced run reports them as reading 0
STALE = ["PTensorTable.p", "TriangularSystem.verify", "cubichodge.cli.jet_json",
         "cubichodge.cli.sigma_json", "cubichodge.cli.sigma_text",
         "cubichodge.cli.commutator_check", "cubichodge.virasoro.virasoro_apply"]


def test_tracer_installs_and_uninstalls():
    ptilde = PTensorTable.ptilde
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert PTensorTable.ptilde is not ptilde
    finally:
        tracer.uninstall()
    assert PTensorTable.ptilde is ptilde
    assert tracer.missing == STALE


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_passes_make_equal_exact_counts(name, tmp_path, monkeypatch):
    # the program imported here, not re-imported: Run.setup and
    # wl.import_program would replace the cubichodge modules other tests hold
    monkeypatch.delenv("CUBICHODGE_CACHE", raising=False)
    run = bench.Run(wl.WORKLOADS[name], 1, tmp_path)
    run.cli = cubichodge.cli
    if run.workload.primes_cache:
        run.primed, _, ok = wl.prime_cache(bench.SRC, tmp_path, run.expected)
        assert ok
    _, traced = run.traced(0)
    assert len(traced) == 2
    first, second = (tracer.exact_counts() for _, tracer in traced)
    assert first == second
    assert run.failed == 0 and not run.problems
