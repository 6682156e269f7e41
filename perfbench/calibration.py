"""A fixed kernel whose time tracks how fast the host runs this process.

On the shared 2-vCPU host the figures in README.md come from, the same
code ran up to 1.9 times slower at some moments than at others, in
phases lasting from seconds to minutes. Process CPU time tracked wall
time, and steal time stayed near zero: the core itself ran slower. The
run-to-run spread of raw experiment times therefore measures the host
more than the program. The benchmark times this kernel right before
every experiment and reports experiment time as a multiple of the
kernel's time over the same run, in which the host's speed cancels.

The kernel is fixed benchmark code and imports nothing from puremit, so
a change to the program does not change it. It mixes the two kinds of
work the workloads do: interpreter-bound work (sorting on tuples of
rounded floats, like the eigenbasis tie-sort of ``linalg.hermitian_eig``)
and small dense matrix products; the first takes about two thirds of it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

SEED = 20210715
SORT_ROUNDS = 6
PRODUCTS = 120


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self._floats = [float(x) for x in rng.normal(size=2000)]
        self._matrix = rng.normal(size=(96, 96))
        self.times: list[float] = []

    def measure(self) -> float:
        """Run the kernel once; record and return its time in seconds."""
        floats, matrix = self._floats, self._matrix
        started = perf_counter()
        for _ in range(SORT_ROUNDS):
            sorted(range(200), key=lambda c: tuple(round(x, 12) for x in floats[c:c + 8]))
        for _ in range(PRODUCTS):
            matrix @ matrix
        elapsed = perf_counter() - started
        self.times.append(elapsed)
        return elapsed

    def cost(self, seconds: float, count: int) -> float:
        """Mean time of ``count`` experiments that took ``seconds`` in all, in kernel times."""
        return seconds / count / (sum(self.times) / len(self.times))
