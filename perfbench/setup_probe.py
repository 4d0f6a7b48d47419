"""Time one set-up in a fresh interpreter: import greenbound from the
checkout, generate the workload's inputs and parse them.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the calibrated seconds taken (see speed.py).  ``run.py`` runs it
several times and reports the median as ``setup_s``.
"""

import sys
import time

t0 = time.perf_counter()
import speed  # noqa: E402  (imports numpy, which greenbound imports anyway)

with speed.SpeedSampler(interval=0.005) as sampler:
    import workloads

    gb = workloads.import_program()
    workloads.parse(gb, workloads.generate(sys.argv[1], int(sys.argv[2])))
    elapsed = time.perf_counter() - t0
print(sampler.calibrated(elapsed))
