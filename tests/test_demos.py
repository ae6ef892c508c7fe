"""Every demo script runs to completion and prints its frozen output."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# sha256 of each demo's standard output
DEMOS = {
    "01_free_energies.py": "21bcec5e7ec8a367adf7222fe0077167c1c5917f7ed0c80414127c246f871301",
    "02_gap_polynomials.py": "a19295681296e009a903bbe9adbed9e693afaab15c069f04f5def39201de43dd",
    "03_intersection_tables.py": "bcca1eb260b24593a0e486bfb241afd54979db80d60553aecfb2cbecd548ec16",
    "04_virasoro_rational.py": "021f6285466fa93c648d54f1252fc31c1441e8aaf6b8c34b56eb261aec0916d0",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMOS[name]
