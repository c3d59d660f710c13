"""Rescale a round's CPU time to a fixed speed of the host.

The benchmark's host is a virtual machine on a shared processor: the same
round's CPU time moves by up to 2 times as the physical core it runs on
switches between busy and idle neighbours, often several times a second.
``SpeedProbe`` samples that speed while the program runs. Every
``INTERVAL_S`` of process CPU time a SIGPROF handler times a fixed kernel
and credits the CPU time since the previous sample with the speed it found:

    ref_cpu_s = sum over intervals of interval CPU s * reference s / kernel s

where the reference is the kernel's time on the fast state of a 2-vCPU Xeon
host, so ``ref_cpu_s`` reads in seconds at that speed. Neighbours slow
different kinds of code by different amounts, so each workload names the
kernel whose code is most like its timed phase's inner loop
(``workloads.PROBE_KERNEL``; set-up, imports and ``gen``, uses numpy's):
the numpy kernel tracked the evolve and walks rounds' CPU time within 1.5%
and 2.7% (coefficient of variation of the ratio over rounds), the python
kernel the neutrality rounds' within 3%, where the numpy kernel gave 10%.
The kernel's own time is left out of both the raw and the rescaled CPU time.
Times use the main thread's CPU clock: the process clock turns coarse while a
process timer is armed, and the round runs on one thread.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01

_RNG = np.random.default_rng(7)
_POPULATION = _RNG.random(1000)
_TABLE = np.arange(1 << 16, dtype=np.int64)
_COUNTS: dict[int, int] = {}


def numpy_kernel() -> int:
    """Small numpy calls and table lookups: copies, argmin, draws."""
    s = 0
    for i in range(20):
        fits = _POPULATION.copy()
        s += int(np.argmin(fits)) + int(_RNG.integers(0, 1000, size=4).max())
        s += int(_TABLE[(i * 4099) & 0xFFFF])
    return s


def python_kernel() -> int:
    """Interpreter work on small ints, tuples, lists and a dict: run-length encoding."""
    acc = 0
    runs: list[tuple[int, int, int]] = []
    prev = -1
    for i in range(60):
        for j in range(12):
            s = (i * 7 + j) & 7
            if s == prev:
                letter, start, length = runs[-1]
                runs[-1] = (letter, start, length + 1)
            else:
                runs.append((s, j, 1))
                prev = s
            _COUNTS[(i ^ j) & 255] = _COUNTS.get((i + j) & 255, 0) + 1
        acc += len(runs)
        runs.clear()
    return acc


# kernel and its time on the fast state of the host
KERNELS = {"numpy": (numpy_kernel, 0.00022), "python": (python_kernel, 0.00018)}


class SpeedProbe:
    """Raw and rescaled CPU time of the main thread since it started."""

    def __init__(self, kernel: str = "numpy"):
        self.kernel, self.ref_s = KERNELS[kernel]
        self.cpu = 0.0  # raw CPU s up to the last sample, kernels excluded
        self.ref_cpu = 0.0  # the same, rescaled to the reference speed
        self.kernel_s = 0.0
        self.samples = 0
        self._scale = 1.0

    def _sample(self, signum, frame):
        t0 = time.thread_time()
        self.kernel()
        t1 = time.thread_time()
        self._scale = self.ref_s / (t1 - t0)
        now = t0 - self.kernel_s
        self.ref_cpu += (now - self.cpu) * self._scale
        self.cpu = now
        self.kernel_s += t1 - t0
        self.samples += 1

    def _warm_up(self) -> None:
        t0 = time.thread_time()
        self.kernel()  # the first call pays lazy set-up; it is not a sample
        self.kernel_s += time.thread_time() - t0

    def start(self) -> None:
        """Sample once now (crediting the CPU time before it), then every INTERVAL_S."""
        self._warm_up()
        self._sample(None, None)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def use(self, kernel: str) -> None:
        """Sample with the current kernel, then go on sampling with ``kernel``."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            self._sample(None, None)
            self.kernel, self.ref_s = KERNELS[kernel]
            self._warm_up()
            self._sample(None, None)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def read(self) -> tuple[float, float]:
        """(raw, rescaled) CPU s so far; the time since the last sample takes its speed."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            now = time.thread_time() - self.kernel_s
            return now, self.ref_cpu + (now - self.cpu) * self._scale
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})
