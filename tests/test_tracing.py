"""The benchmark's span wrappers still find the program's layers.

perfbench/tracing.py patches module globals, names imported into
cubichodge.cli and class attributes by name; a renamed or deleted module or
class makes `Tracer.install` raise, which otherwise shows only in traced
benchmark runs.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from cubichodge.ptensors import PTensorTable  # noqa: E402

# spans whose targets no longer exist; a traced run reports them as reading 0
STALE = ["PTensorTable.p", "TriangularSystem.verify", "cubichodge.cli.sigma_json",
         "cubichodge.cli.sigma_text", "cubichodge.cli.commutator_check",
         "cubichodge.virasoro.virasoro_apply"]


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
