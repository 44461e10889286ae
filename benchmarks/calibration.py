"""Machine-speed probe: a fixed piece of work timed between the items of a run.

The benchmark shares a few cores of a host with other jobs, and their load
moves this machine's speed by 10-20 % over minutes: the same pass of the same
code takes 9 s in one minute and 11 s a few minutes later.  Within a run of a
minute that drift is nearly constant, so more samples per run do not remove
it.  What does is to time, between the items, work that does not depend on
groupoidlab and to scale the run's times by ``NOMINAL_S / mean(probe times)``.
A change to groupoidlab moves the scaled times as it moves the raw ones; a
slow minute of the host slows the items and the probe alike, and cancels.

The probe is two kinds of work groupoidlab does, about 0.1 s each: a
pure-Python arithmetic loop and an unoptimized real ``einsum`` contraction.
Of the kernels tried (these two, numpy element-wise work on a cache-sized
array, a complex ``einsum``, a shift-and-add loop, a memory-streaming update,
page-faulting fresh memory), this pair tracked the item times of both
workloads best.  Its arrays are tiny, so the probing parent process stays
far below the item processes in memory: an item process started by
``vfork`` inherits the parent's peak RSS as its own ``ru_maxrss``, so a
probe with large arrays would show in ``peak_rss_mb``.

``NOMINAL_S`` is about the probe time on the 2-core Intel Xeon (2.0 GHz) on
which the benchmark was defined, so there the scaled times read about as the
raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.2
EVERY_S = 1.0  # probe before an item once this much time has passed since the last probe

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((120, 120))


def _python():
    total = 0
    for i in range(900_000):
        total += i * i % 7
    return total


def _einsum():
    x = _MATRIX
    for _ in range(128):
        x = np.einsum("ij,jk->ik", _MATRIX, x, optimize=False) * 1e-2
    return x


KERNELS = (_python, _einsum)


def probe() -> float:
    """Wall time of one pass over the kernel mix."""
    start = time.perf_counter()
    for kernel in KERNELS:
        kernel()
    return time.perf_counter() - start


class Calibration:
    """Probe times of one run; ``maybe()`` probes when ``EVERY_S`` have passed."""

    def __init__(self):
        probe()  # warm-up: first-touch page faults, numpy's lazy set-up
        self.times: list[float] = []
        self._last = float("-inf")

    def maybe(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.times.append(probe())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns this run's times into times at the nominal speed.

        The mean, not the median: the items' times include the host's short
        stalls, and so must the probe's.
        """
        return NOMINAL_S / statistics.fmean(self.times)
