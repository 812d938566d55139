"""How fast the measuring CPU runs, sampled throughout a benchmark run.

On a shared virtual machine the speed of one virtual CPU changes by up to
1.6x within seconds and stays changed for tens of seconds, as other tenants
come and go on the host core beneath it. A wall time measured on it says as
much about the host as about asrstream. So the benchmark runs every measured
process on one CPU, and a sampler thread pinned to that same CPU runs a fixed
kernel every ``PERIOD_S``. It records the kernel's own CPU time and the CPU's
steal counter, the time the hypervisor ran something else on it. A measured
interval is then reported as its wall time, less the share of it stolen,
times the mean over the samples taken during it of ``NOMINAL_S / kernel CPU
time``: seconds at a fixed speed on a CPU that is never taken away.

The kernel mixes what asrstream spends its time on: small dense linear
algebra (``eigh`` and ``pinv`` of a 64x64 matrix) and the interpreter
formatting and parsing text. It does not call asrstream, so a change to the
program cannot change it.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter, thread_time

import numpy as np

PERIOD_S = 0.1
# The kernel's median CPU time as sampled beside a busy measured process on a
# 2-vCPU x86-64 VM at its usual speed (Python 3.11, numpy 2.4, one OpenBLAS
# thread; 1.2 ms when it runs alone on a quiet core). So normalised seconds
# read close to that machine's usual wall seconds. Fixed: it only sets the
# scale, and both sides of a comparison share it.
NOMINAL_S = 0.0027
MIN_SAMPLES = 3
TICKS_PER_S = os.sysconf("SC_CLK_TCK")

_rng = np.random.default_rng(20220428)
_M = _rng.standard_normal((64, 64))
_SPD = _M @ _M.T
_VALUES = _rng.standard_normal(150).tolist()


def kernel() -> None:
    np.linalg.eigh(_SPD)
    np.linalg.pinv(_SPD)
    text = ",".join(repr(v) for v in _VALUES)
    sum(float(s) for s in text.split(","))


def measuring_cpu() -> tuple[int, set[int]]:
    """(the CPU measured work runs on, the CPUs left for the benchmark's own
    helper threads)."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    return cpu, (cpus - {cpu}) or {cpu}


def stolen_seconds(cpu: int) -> float:
    """The hypervisor's steal counter for one CPU, from /proc/stat."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(prefix):
                return int(line.split()[8]) / TICKS_PER_S
    return 0.0


class SpeedSampler:
    """A thread pinned to ``cpu`` that times ``kernel`` every ``PERIOD_S``."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        # (wall stamp, kernel CPU s, steal counter s)
        self.samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        kernel()  # warm caches and lazy imports before the first sample
        while not self._stop.wait(PERIOD_S):
            stamp, start = perf_counter(), thread_time()
            kernel()
            self.samples.append((stamp, thread_time() - start, stolen_seconds(self.cpu)))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Normalised over wall seconds between two ``perf_counter`` stamps:
        the share of the samples' span not stolen, times the CPU's mean
        speed relative to NOMINAL_S. Widened to the nearest samples when the
        interval holds fewer than MIN_SAMPLES."""
        samples = list(self.samples)
        inside = [s for s in samples if start <= s[0] <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            inside = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
            inside.sort()
        if len(inside) < 2:
            return 1.0
        kept = 1.0 - (inside[-1][2] - inside[0][2]) / (inside[-1][0] - inside[0][0])
        return kept * statistics.fmean(NOMINAL_S / s[1] for s in inside)
