"""Set-up probe: import taukit and generate a workload's inputs in a fresh
interpreter, then print "ready" and two calibration-kernel times (each the
median of nine runs), one from before the set-up and one from after it.
run.py times the probe from process start.

    python3 perfbench/probe.py <workload> <seed>
"""

import statistics
import sys

import run


def kernel() -> float:
    return statistics.median(run.kernel_seconds() for _ in range(9))


k_before = kernel()
sys.path.insert(0, str(run.SRC))

import taukit  # noqa: E402,F401 - importing it is the set-up being timed

import workloads  # noqa: E402

workloads.OpStream(sys.argv[1], int(sys.argv[2])).round(run.PREGEN_ROUNDS - 1)
print("ready", k_before, kernel(), flush=True)
