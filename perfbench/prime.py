"""Set-up child for the tables-warm workload: import cubichodge and solve
through genus 5 into a cache directory, both timed with speed.measure.

    python3 perfbench/prime.py <src dir> <cache dir>

Prints one JSON line: exit code, output sha256 and the timing.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import speed
import workloads as wl


def main() -> int:
    src, cache = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(src))
    cli, imported = speed.measure(lambda: wl.import_program(src))
    res = wl.run_op(cli.main, wl.PRIME_OP, cache, {})
    timing = speed.total([imported, res.timing])
    print(json.dumps({"rc": res.rc, "sha256": res.digest,
                      "raw_s": timing.raw_s, "loop_s": timing.loop_s}))
    if res.rc:
        sys.stderr.write(res.stderr)
    return res.rc


if __name__ == "__main__":
    sys.exit(main())
