"""A fixed computation that gauges how fast the machine runs at the moment.

On a shared virtual machine the speed of identical work drifts by up to 2x
over seconds to minutes, invisibly to the guest (no steal time is charged,
and process CPU time tracks wall time). `run.py` therefore times a job in
short units and runs this reference between consecutive units; a unit's
normalized time is its wall time over the mean of the two reference times
around it. The reference is the benchmark's own code (`oracle.py` and
numpy) with inputs fixed here, so no change to `mfmarl` can move it.

The reference must slow down as the workload does: `python` is the
oracle's mean-field recursion, interpreter overhead and small numpy calls
like the per-step and per-iteration work of `paper-sweep` and
`train-nonaffine`; `memory` is two products of a dense float64 4000 x 4000
matrix (128 MB, the size of the N = 4000 W) with a thin block, like the
view products that dominate `large-n`. Each tracks its own workloads and
not the other's: on a 2-vCPU Xeon VM the `python` reference drifted with
the interpreter-bound jobs but by twice as much as the memory-bound
`large-n` units.

Set-up time is scaled the same way, but reported in seconds: wall time
times NOMINAL_S over the measured reference time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import oracle

Q, HIDDEN = 10, 32
N_PARAMS = HIDDEN * 2 * Q + HIDDEN + 2 * HIDDEN + 2
REFERENCE_SEED = 20220301
# Repeats per measurement; the median drops a repeat hit by an interrupt.
REPEATS = 3
# Typical reference times on the 2-vCPU Xeon VM the benchmark was built on.
# They turn a set-up time over the reference time back into seconds.
NOMINAL_S = {"python": 0.020, "memory": 0.085}


class Reference:
    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.nominal_s = NOMINAL_S[kind]
        rng = np.random.default_rng(REFERENCE_SEED)
        if kind == "python":
            self.oracle = oracle.FirmOracle(rng.normal(0.0, 0.5, N_PARAMS), Q, HIDDEN, 0.9, sigma=1.2)
            self.mu0 = np.full(Q, 1.0 / Q)
            self._work = self._python
        else:
            self.matrix = rng.random((4000, 4000))
            self.block = rng.random((4000, 2 * Q))
            self._work = self._memory

    def _python(self) -> None:
        for _ in range(4):
            self.oracle.mf_value(self.mu0, 40)

    def _memory(self) -> None:
        for _ in range(2):
            self.matrix @ self.block

    def measure(self) -> float:
        """Median wall time of REPEATS runs of the reference, in seconds."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
