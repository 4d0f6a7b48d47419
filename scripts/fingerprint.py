#!/usr/bin/env python3
"""Fingerprint the outputs of one benchmark round per seed.

For every seed in the range, runs one round of a perfbench workload
(``perfbench/workloads.py``, imported and never modified) on this
checkout's ``src/greenbound`` and prints one sha256 of the reprs of
``OpResult.output()`` over all ops of the round.  Two checkouts whose
hashes agree produce bit-identical bounds and nodal values, so every
width metric of the benchmark agrees too.

Usage: python3 scripts/fingerprint.py --workload poly-const --seeds 0-3
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def seed_range(text: str) -> range:
    """'A-B' (inclusive) or a single seed 'A'."""
    a, _, b = text.partition("-")
    return range(int(a), int(b or a) + 1)


def fingerprint(gb, workload: str, seed: int) -> str:
    parsed = workloads.parse(gb, workloads.generate(workload, seed))
    results, _wall = workloads.run_round(gb, parsed)
    digest = hashlib.sha256()
    for r in results:
        digest.update(repr(r.output()).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", type=seed_range, default=range(1),
                    help="inclusive seed range A-B, or one seed (default 0)")
    args = ap.parse_args(argv)
    gb = workloads.import_program()
    for seed in args.seeds:
        print(f"{args.workload} seed={seed} {fingerprint(gb, args.workload, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
