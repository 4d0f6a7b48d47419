"""The committed output fingerprints of the benchmark workloads.

``scripts/fingerprint.py`` hashes every bound and nodal value of one
benchmark round.  A change that moves any bit of them fails here, and
needs a deliberate refresh of ``scripts/fingerprints.json``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# interval-1d pins the 1D source models, whose libm nudges go through the
# same ulp stepper as the 2D boundary search, and the check's polynomial
# kernel; seeds 0-1 draw the jump breakpoints 0.375 and 0.75, seeds 4 and 8
# draw 0.25 and 0.625 at both heights; each poly-const and square-trig seed
# draws its own points, and so its own interior fans in the plan's one fan
# pass
SEEDS = {"poly-const": "0-3", "square-trig": "0-3", "interval-1d": "0-1,4,8"}


@pytest.mark.parametrize("workload", list(SEEDS))
def test_outputs_match_committed_fingerprints(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py"), "--workload", workload,
         "--seeds", SEEDS[workload], "--check", str(ROOT / "scripts" / "fingerprints.json")],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
