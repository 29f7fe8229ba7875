"""Machine-speed sampling for the end-to-end timings.

Shared machines change speed by tens of percent many times a second
(measured: a fixed pure-Python batch alternating between about 0.21 and
0.40 ms within 100 ms windows), and the mix of fast and slow spells
differs from minute to minute, which no amount of work per run averages
away.  So while a timed run is in progress an interval timer interrupts
the process every ``INTERVAL_S`` and the signal handler times one fixed
reference batch: a min-plus product written in the benchmark itself, on
operands that do not depend on the workload seed, with the garbage
collector paused so that the program's heap cannot slow it.

An operation's time is then its wall time minus the handler time spent
inside it, scaled by ``REFERENCE_S`` over the mean reference time sampled
during it (or, for an operation too short to be sampled, by the samples
nearest to it).  The end-to-end timings thus read as seconds on a
machine whose reference batch takes ``REFERENCE_S``; the raw wall times
are reported alongside them.  The sampler starts no thread or process.
"""

from __future__ import annotations

import bisect
import gc
import signal
from operator import add
from random import Random
from time import perf_counter

# Reference batch time on the 2-vCPU machine the benchmark was defined
# on (CPython 3.11.7), between its fast and slow spells.  Only ratios
# between runs matter.
REFERENCE_S = 3.0e-4
INTERVAL_S = 0.025

_rng = Random(20200509)
_ROWS = tuple(tuple(_rng.getrandbits(200) - (1 << 199) for _ in range(10)) for _ in range(10))
_COLS = tuple(zip(*_ROWS))


class SpeedSampler:
    """Context manager that samples the reference batch on SIGALRM."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        for _ in range(2):
            tuple(tuple(min(map(add, row, col)) for col in _COLS) for row in _ROWS)
        end = perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, seconds: float) -> float:
        """Scale a span of wall time that began at ``start`` to REFERENCE_S."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, start + seconds)
        inside = self.durations[lo:hi]
        if inside:
            return (seconds - sum(inside)) * REFERENCE_S * len(inside) / sum(inside)
        nearest = self.durations[max(lo - 1, 0):lo + 1]
        if not nearest:
            raise RuntimeError("no speed samples were taken")
        return seconds * REFERENCE_S * len(nearest) / sum(nearest)
