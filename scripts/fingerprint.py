#!/usr/bin/env python3
"""Fingerprint the outputs of one benchmark round per seed.

For every seed of the list, runs one round of a perfbench workload
(``perfbench/workloads.py``, imported and never modified) on this
checkout's ``src/greenbound`` and prints one sha256 of the reprs of
``OpResult.output()`` over all ops of the round, and of each 2D op's
boundary-search diagnostics (``SEARCH_KEYS``: m, M, evaluations, depth,
converged and the box count of each bounding form).  Two checkouts whose
hashes agree produce bit-identical bounds and nodal values, so every
width metric of the benchmark agrees too, and their boundary searches
did the same work.

Usage: python3 scripts/fingerprint.py --workload interval-1d --seeds 0-1,4,8

``--save FILE`` also writes the hashes to FILE (JSON, keyed by workload
and seed); ``--check FILE`` compares them with the hashes FILE holds for
the same workload and seeds, names every seed that differs or is missing,
and exits 1 if any does.  Comparing two checkouts takes two commands:

    python3 scripts/fingerprint.py --workload square-trig --seeds 0-3 --save fp.json
    (in the other checkout)
    python3 scripts/fingerprint.py --workload square-trig --seeds 0-3 --check fp.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def seed_list(text: str) -> list:
    """A comma list of inclusive ranges 'A-B' and single seeds 'A', such
    as '0-1,4,8'."""
    seeds = []
    for part in text.split(","):
        a, _, b = part.partition("-")
        seeds.extend(range(int(a), int(b or a) + 1))
    return seeds


# EnclosureResult.diagnostics of a 2D op that the hash covers
SEARCH_KEYS = ("m", "M", "extrema_evaluations", "extrema_depth", "extrema_converged",
               "extrema_expanded_boxes", "extrema_natural_boxes")


def fingerprint(gb, workload: str, seed: int) -> str:
    parsed = workloads.parse(gb, workloads.generate(workload, seed))
    results, _wall = workloads.run_round(gb, parsed)
    digest = hashlib.sha256()
    for r in results:
        search = tuple(r.diagnostics[k] for k in SEARCH_KEYS) if r.diagnostics else None
        digest.update(repr((r.output(), search)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", type=seed_list, default=[0],
                    help="comma list of inclusive ranges A-B and seeds, such as "
                         "0-1,4,8 (default 0)")
    ap.add_argument("--save", metavar="FILE", type=Path,
                    help="also write the hashes to FILE, merged with those it holds")
    ap.add_argument("--check", metavar="FILE", type=Path,
                    help="compare with the hashes in FILE; exit 1 if any seed differs")
    args = ap.parse_args(argv)
    reference = json.loads(args.check.read_text()) if args.check else None
    gb = workloads.import_program()
    hashes = {}
    for seed in args.seeds:
        hashes[str(seed)] = fingerprint(gb, args.workload, seed)
        print(f"{args.workload} seed={seed} {hashes[str(seed)]}")
    if args.save:
        saved = json.loads(args.save.read_text()) if args.save.exists() else {}
        saved.setdefault(args.workload, {}).update(hashes)
        args.save.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    if reference is None:
        return 0
    want = reference.get(args.workload, {})
    differ = [seed for seed, h in hashes.items() if want.get(seed) != h]
    for seed in differ:
        print(f"DIFFERS: {args.workload} seed={seed} "
              f"{'not in ' + str(args.check) if seed not in want else 'hash differs'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
