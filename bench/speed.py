"""Host-speed reference for the benchmark's time metrics.

Shared 2-vCPU hosts change speed by up to 40 % within seconds, presumably
because other tenants share the physical cores, and CPU time tracks wall
time through it. Timing a fixed pure-Python loop next to the measured
work shows the speed the work ran at, and times scaled by
`REFERENCE_S / measured loop time` are "seconds at reference speed".
NOTES.md gives the spreads measured with and without this scaling.

`REFERENCE_S` is close to the loop's median time on the 2-vCPU Intel Xeon
host where the baseline was recorded (4.2 ms over 50 measured calls), so
scaled times there read close to raw ones.
"""

from __future__ import annotations

import os
import signal
import statistics
import struct
from time import perf_counter as clock

REFERENCE_S = 0.004
REF_ITERATIONS = 30_000
PERIOD_CPU_S = 0.25


def reference_loop() -> float:
    """Seconds taken by a fixed integer loop like the scan kernel's bit work."""
    t = clock()
    x = 0
    for i in range(REF_ITERATIONS):
        x ^= (i * 2654435761) & 0xFFFFFFFF
    return clock() - t


def scale(seconds: float, loop_samples: list[float]) -> float:
    """`seconds` at reference speed, given loop times sampled while they passed.

    Each sample stands for an equal slice of CPU time, and the work done in a
    slice is proportional to the speed 1/loop, so the mean speed over the
    slices is 1/harmonic_mean(samples). This holds for one busy process and
    for a pool keeping every core busy, where a mix of fast and slow cores
    shows as two clusters of samples.
    """
    return seconds * REFERENCE_S / statistics.harmonic_mean(loop_samples)


class SpeedProbe:
    """Times the reference loop every PERIOD_CPU_S of CPU time while armed.

    It runs in this process and in every process forked from it while armed,
    such as pool workers. CPU-time timers (ITIMER_PROF) fire only while a
    process computes, so a parent blocked on its workers takes no samples
    and never competes with them. Samples go to a file opened for append,
    because forked workers cannot return anything else once the pool
    terminates them.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        self.armed = False
        signal.signal(signal.SIGPROF, self._sample)
        os.register_at_fork(after_in_child=self._arm_in_worker)

    def _sample(self, signum, frame) -> None:
        os.write(self.fd, struct.pack("d", reference_loop()))

    def _arm_in_worker(self) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_PROF, PERIOD_CPU_S, PERIOD_CPU_S)

    def start(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, PERIOD_CPU_S, PERIOD_CPU_S)

    def stop(self) -> list[float]:
        """Disarm and return every sample, this process's and its workers'."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.armed = False
        os.close(self.fd)
        with open(self.path, "rb") as f:
            data = f.read()
        return [v for (v,) in struct.iter_unpack("d", data[: len(data) // 8 * 8])]
