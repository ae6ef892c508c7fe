"""Write reference.json: the sha256 of every benchmark operation's output.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the reference solver, never to make a
failing benchmark pass: the hashes stand for the exact outputs the program
must keep producing.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    cli = wl.import_program(src)
    cache = tempfile.mkdtemp(prefix="reference-", dir=ROOT)
    try:
        digests = {}
        for op in wl.all_ops():
            res = wl.run_op(cli.main, op, cache if op.cache != wl.NO_CACHE else None, {},
                            sample=False)
            if res.rc != 0:
                print(f"{op.key}: exit {res.rc}\n{res.stderr}", file=sys.stderr)
                return 1
            digests[op.key] = res.digest
            print(f"{op.key:32s} {res.timing.raw_s:8.3f} s  {res.digest}")
    finally:
        shutil.rmtree(cache)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump({"sha256": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
