"""A fixed numpy kernel timed around every operation of the benchmark.

The machine this benchmark was built on is a 2-core virtual machine that
shares its host. Its speed swings by up to 2x for stretches of tens of
seconds to minutes, longer than a run, so no statistic of one run's raw
operation times is steady (see README.md). The reference kernel does the
kind of work the operations do -- a spectral multiplier, an inverse
transform and an L^4 sum on freshly allocated arrays of the workload's own
field shape -- but never calls mildns. Dividing an operation's time by the
reference time measured around it on the same core cancels the machine's
speed of the moment and leaves the program's own cost; multiplying by the
kernel's nominal time quotes it in seconds at the machine's fast state.
"""
from __future__ import annotations

import time

import numpy as np

# Nominal time of one pass per field shape, near the 10% quantile of
# back-to-back passes on the machine the README's figures come from.
NOMINAL_S = {(2, 2, 32, 32): 0.022, (2, 512, 512): 0.04}


class Reference:
    def __init__(self, shape: tuple):
        rng = np.random.default_rng(0)
        self.coeff = rng.standard_normal(shape) + 0j
        self.decay = np.exp(-rng.random(shape[-2:]))
        self.reps = max(1, 2**20 // self.coeff.size)  # 2^20 points per pass
        self.nominal_s = NOMINAL_S[shape]

    def time(self) -> float:
        """Seconds taken by one pass of the kernel."""
        start = time.perf_counter()
        acc = 0.0
        for _ in range(self.reps):
            values = np.fft.ifftn(self.coeff * self.decay, axes=(-2, -1))
            acc += float(np.sum(np.abs(values) ** 4))
        return time.perf_counter() - start
