"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on shared virtual machines whose speed swings by a third
or more within seconds, as other tenants load the host.  Wall times of the
same code then spread too much to hold a bound.  So while a timed stretch
runs, a profiling timer interrupts it every INTERVAL_S of CPU time and times
a small fixed reference kernel.  The kernel's speed over the stretch says
how fast the machine ran, and the stretch's time is rescaled to the speed at
which the kernel takes its nominal time:

    normalized = (wall - time spent in the kernel) * mean(nominal / kernel)

The mean of nominal / kernel time weights each sample by the speed it saw,
so a kernel that was itself preempted counts little.  The kernels are fixed
here and do not use the program, so a faster program reads faster.

Two kernels: `sparse_kernel` (a small scipy sparse LU factor and solve, the
operations the program's time steps are made of) for the workload passes, and
`python_kernel` (a pure-Python loop, like the bytecode loading that dominates
start-up) for the set-up probes, which must not import scipy before the
program does.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02   # CPU time between samples; the kernels take about 0.3 ms

# Kernel times at the reference speed: about their typical times inside the
# benchmark's runs (caches cold after the program) on a 2-core 2.1 GHz x86-64
# virtual machine with Python 3.11.7 and scipy 1.17.1.  They only set the
# scale of the results, which then read close to that machine's wall times.
PYTHON_NOMINAL_S = 0.21e-3
SPARSE_NOMINAL_S = 0.37e-3


def python_kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def make_sparse_kernel():
    """A scipy sparse LU factor-and-solve of a fixed tridiagonal system."""
    import numpy as np
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    n = 200
    matrix = diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csc")
    rhs = np.ones(n)

    def sparse_kernel() -> None:
        for _ in range(3):
            splu(matrix).solve(rhs)

    return sparse_kernel


class Sampler:
    """Times `kernel` once on entry and then on every SIGPROF tick."""

    def __init__(self, kernel, nominal_s: float):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.times: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:          # a tick that lands inside a sample
            return
        self._busy = True
        start = time.perf_counter()
        self.kernel()
        self.times.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.times = []
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def record(self) -> dict:
        """What `normalize` needs: samples, time spent in them, speed."""
        return {"samples": len(self.times), "spent_s": sum(self.times),
                "speed": sum(self.nominal_s / t for t in self.times)
                / len(self.times)}


def normalize(wall_s: float, record: dict) -> float:
    """Wall time without the samples, rescaled to the reference speed."""
    return (wall_s - record["spent_s"]) * record["speed"]
