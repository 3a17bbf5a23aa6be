"""The host's speed, sampled while a repetition runs, to scale its times.

The benchmark runs on a few cores of a shared host. Other load on the host
changes how fast the same code runs: a fixed pure-Python loop took from
37 ms to 67 ms per 300k iterations within one 90-second probe, switching
every few seconds, and planning slows with it. A wall time then says as
much about the host as about the program. Over two minutes of identical
planning passes in one process (20 deep_plan targets each), the passes'
interquartile range fell from 0.125 of their median in wall seconds to
0.069 in reference seconds. Over ten seeds of each workload (2.1 GHz
Intel Xeon, nproc 2), the interquartile range of seed_s and plan_s was
0.12-0.28 of the median in wall seconds and 0.04-0.13 in reference
seconds.

``Speedometer`` samples the host: every ``PERIOD_S`` a timer signal runs a
fixed kernel (a loop of integer arithmetic that allocates no container, so
it never triggers the program's garbage collector) and records how long it
took. ``seconds(a, b)`` turns a wall interval into reference seconds: the
interval minus the samples taken inside it, each stretch weighted by
``REFERENCE_KERNEL_S`` over the kernel time measured around it. A reference
second is a second of this program's work on the host at the speed where
the kernel takes ``REFERENCE_KERNEL_S``; the kernel does not depend on the
program, so a faster program gives fewer reference seconds, as it gives
fewer wall seconds.

The signal handler runs between bytecodes of the main thread, so a sample
can fall inside any of the program's functions but never inside a clock read
of the benchmark; samples are pure Python and touch no program state.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
KERNEL_ITERATIONS = 5000
# Kernel seconds at the reference speed: about the fastest state of a
# 2.1 GHz Intel Xeon vCPU (nproc 2), where the kernel took 0.33-0.40 ms
# against a median of 0.51 ms over a 20-second sample.
REFERENCE_KERNEL_S = 0.0004
# Each sample's kernel time is smoothed over this many neighbours on
# either side (0.15 s at PERIOD_S), which evens out timer interrupts.
SMOOTH = 3


def kernel() -> int:
    s = 0
    for i in range(KERNEL_ITERATIONS):
        s += i * i % 7
    return s


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._smoothed: list[float] | None = None

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.kernel_s.append(time.perf_counter() - start)

    def _speed(self) -> list[float]:
        """Kernel seconds of each sample, smoothed (median of its neighbours)."""
        if self._smoothed is None or len(self._smoothed) != len(self.kernel_s):
            k = self.kernel_s
            self._smoothed = [statistics.median(k[max(0, i - SMOOTH):i + SMOOTH + 1])
                              for i in range(len(k))]
        return self._smoothed

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the program's work in the wall interval [a, b].

        Each stretch between samples is scaled by ``REFERENCE_KERNEL_S`` over
        the mean smoothed kernel time of the samples that bound it; the
        samples' own time is left out.
        """
        if not self.starts:
            raise RuntimeError("speedometer took no sample")
        speed, starts, n = self._speed(), self.starts, len(self.starts)
        i = bisect.bisect_left(starts, a)
        total, t = 0.0, a
        while True:
            stop = min(starts[i], b) if i < n else b
            around = [speed[j] for j in (i - 1, i) if 0 <= j < n]
            total += (stop - t) * REFERENCE_KERNEL_S / statistics.fmean(around)
            if stop >= b:
                return total
            t = starts[i] + self.kernel_s[i]
            i += 1
