"""greenbound benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload poly-const --seed 0 --seconds 25 --trace 0

The library under test is the checkout's ``src/greenbound``; it is driven
in-process from one thread.  Load is a closed loop: one caller runs the
workload's ops back to back, one round after another, and starts a new
round only while it can finish within ``--seconds`` of calibrated time
(see speed.py).  Every round runs the same seeded inputs, so all rounds
must give bit-identical outputs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics; its
spans are written to ``.perfbench/trace-<workload>.npz``.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import speed
import workloads

ROOT = workloads.ROOT
SETUP_REPEATS = 5

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("width_max", "1"),
    ("width_geomean", "1"),
    ("peak_rss_mb", "MB"),
]


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import + input generation + parsing."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def check_results(gb, parsed, results) -> list:
    """Oracle verdict per op: None when correct, else the reason."""
    import oracles  # mpmath is imported only after memory was measured

    data = [(b.data, p) for b in parsed.batches for p in b.points]
    data += [(op.data, None) for op in parsed.ops1d]
    return [oracles.check_op(d, p, r) for (d, p), r in zip(data, results)]


def fingerprint(results) -> list:
    return [repr(r.output()) for r in results]


def widths(results) -> list:
    return [r.width for r in results if r.error is None]


def geomean(values) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values)) if values else 0.0


@dataclass
class Outcome:
    results: list  # of the first (untraced) round
    verdicts: list  # oracle verdict per op of that round
    attempted: int
    failed: int
    metrics: dict
    units: dict
    notes: list


def count_failures(verdicts, reference, reruns) -> int:
    """Ops failing an oracle, plus rerun ops failing one or not matching
    the reference round bit for bit."""
    failed = sum(v is not None for v in verdicts)
    ref = fingerprint(reference)
    for results in reruns:
        same = [a == b for a, b in zip(fingerprint(results), ref)]
        failed += sum(v is not None or not s for v, s in zip(verdicts, same))
    return failed


def run_untraced(gb, parsed, seconds: float) -> Outcome:
    rounds, raw, walls = [], [], []
    with speed.SpeedSampler() as sampler:
        # Calibrated time decides when to stop, so that a loaded host does
        # not change the number of rounds.
        while not walls or sum(walls) + statistics.median(walls) <= seconds:
            mark = len(sampler.samples)
            results, wall = workloads.run_round(gb, parsed)
            rounds.append(results)
            raw.append(wall)
            walls.append(sampler.calibrated(wall, mark))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = check_results(gb, parsed, rounds[0])
    w = widths(rounds[0])
    metrics = {
        "wall_s": statistics.median(walls),
        "width_max": max(w, default=0.0),
        "width_geomean": geomean(w),
        "peak_rss_mb": peak_rss_mb,
    }
    return Outcome(rounds[0], verdicts, len(rounds) * parsed.n_ops,
                   count_failures(verdicts, rounds[0], rounds[1:]), metrics, {},
                   [f"rounds={len(rounds)} uncalibrated round wall times: {raw}"])


def run_traced(gb, parsed, workload: str) -> Outcome:
    import instrument
    import spans

    tracer = spans.Tracer()
    with speed.SpeedSampler() as sampler:
        untraced, untraced_wall = workloads.run_round(gb, parsed)
        untraced_cal = sampler.calibrated(untraced_wall)
        mark = len(sampler.samples)
        instrument.instrument(tracer, gb)
        try:
            traced, traced_wall = workloads.run_round(gb, parsed, tracer)
        finally:
            tracer.uninstall()
        traced_cal = sampler.calibrated(traced_wall, mark)
    path = ROOT / ".perfbench" / f"trace-{workload}.npz"
    path.parent.mkdir(exist_ok=True)
    tracer.write(path)

    verdicts = check_results(gb, parsed, untraced)
    gap_share, gap_max = instrument.gap_ledger(gb, parsed, untraced)
    metrics = instrument.per_layer_metrics(
        tracer.summary(), traced_wall, traced_cal / untraced_cal - 1.0, gap_share, gap_max)
    units = {name: unit for name, unit, _b in instrument.PER_LAYER}
    return Outcome(untraced, verdicts, 2 * parsed.n_ops,
                   count_failures(verdicts, untraced, [traced]), metrics, units,
                   [f"spans written to {path.relative_to(ROOT)}"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        gb = workloads.import_program()
    except ImportError as e:
        print(f"perfbench: cannot import the program under test: {e}", file=sys.stderr)
        return 2
    inputs = workloads.generate(args.workload, args.seed)
    parsed = workloads.parse(gb, inputs)

    if args.trace:
        out = run_traced(gb, parsed, args.workload)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        out = run_untraced(gb, parsed, args.seconds)
        out.metrics = {"setup_s": setup_s, **out.metrics}
        out.units = dict(END_TO_END)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops_per_round={parsed.n_ops}")
    for line in out.notes:
        print(line)
    for r, v in zip(out.results, out.verdicts):
        bound = r.bound if r.bound is not None else "nodal"
        print(f"op {r.label}: width={r.width!r} bound={bound} "
              f"{'ok' if v is None else 'FAILED: ' + v}")
    for name, value in out.metrics.items():
        print(f"{name} = {value!r} {out.units[name]}")
    print(f"ops_failed_frac = {out.failed / out.attempted!r} ratio")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": out.units[name]}
                    for name, value in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
