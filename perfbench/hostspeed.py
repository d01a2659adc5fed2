"""Rescaling of host times to a fixed host speed.

A virtual machine whose cores are shared with other tenants changes speed
as its neighbours come and go: on a 2-vCPU VM (Intel Xeon, 2.1 GHz) the
speed drifted by nearly 1.8x within minutes. That moves every raw timing
with it: ten back-to-back runs of the same code spread by 30-45% between
their quartiles. To measure loopsim rather than its neighbours, the
runner times a reference kernel between units of work (passes, set-up
processes) and multiplies each unit's times by

    nominal kernel time / mean of the kernel timings just before and after.

The kernel involves no loopsim code, so a change to loopsim cannot move it.
It is made of parts that do the same kind of work as a workload's hot path,
and each workload names its parts; a slowdown of the host that hits that
kind of work then cancels out. The runner also prints the raw times and the
factors.
"""

import time

import numpy as np

PART_NOMINAL_S = 0.1


def _interpreter():
    total = 0
    for i in range(1_200_000):
        total += i * i


def _small_numpy():
    # Row updates on a small complex matrix from a Python loop, like the
    # mesh evaluation and loop propagation.
    u = np.eye(6, dtype=complex)
    row = np.ones(6, dtype=complex)
    for _ in range(30_000):
        u[1] = u[2] * row[1] + u[3]
        np.abs(u) ** 2


def _random_draws():
    # Normal draws binned into a histogram, like the photon sampler; in
    # chunks, so the kernel adds little to peak memory.
    rng = np.random.default_rng(0)
    for _ in range(30):
        np.histogram(rng.normal(0.0, 1.0, size=100_000), bins=100)


PARTS = {
    "interpreter": _interpreter,
    "small_numpy": _small_numpy,
    "random_draws": _random_draws,
}


class HostSpeed:
    """Reference-kernel timings between units of work, as rescaling factors."""

    def __init__(self, parts):
        self._parts = [PARTS[name] for name in parts]
        self.nominal_s = PART_NOMINAL_S * len(self._parts)
        self.samples = [self._time_kernel()]

    def _time_kernel(self):
        start = time.perf_counter()
        for part in self._parts:
            part()
        return time.perf_counter() - start

    def factor(self):
        """Rescaling factor for the work done since the previous call."""
        self.samples.append(self._time_kernel())
        return self.nominal_s / ((self.samples[-2] + self.samples[-1]) / 2.0)
