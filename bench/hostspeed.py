"""Host-speed correction of measured times.

A shared host slows everything that runs on it while other tenants load the
cores it shares with them: by up to 2x, for stretches from seconds to over a
minute. Repeating the same work and taking medians removes short stretches
but not long ones. So while a run is timed, the harness also times a fixed
unit of interpreted-Python work (loop arithmetic, dict and string handling,
a regular expression over a small log; about 0.2 ms) every 20 ms, inside ops
and between them. The unit uses nothing of the program under test, so a
change to the program cannot move it.

``Sampler.factor`` turns those samples into the host's slowdown during an
op: the median of the samples taken while it ran, widened to the nearest
ones until there are 11, over ``REFERENCE_S``, the unit's median time on the
recording host over a quiet minute. A measured time divided by its factor
is that time at the reference host speed. ``REFERENCE_S`` only fixes the
scale: it is the same for every commit, so ratios between commits do not
depend on it.
"""

from __future__ import annotations

import bisect
import re
import signal
import statistics
import time

REFERENCE_S = 0.000180  # one unit: 2-vCPU x86_64 Xeon VM, Python 3.11.7
INTERVAL_S = 0.02  # between samples
NEAREST = 11  # samples, at least, that set an op's factor

_PATTERN = re.compile(r"^(?:#\d+ [\d.]+ )?(?P<msg>.*?(?:error|ERROR|failed)[^\n]*)$", re.M)
_TEXT = "\n".join(
    f"#{i} 1.2 ERROR: failed to fetch http://mirror/{i}" if i % 9 == 0
    else f"#{i} 0.{i} step running apt-get install pkg{i}"
    for i in range(40)
)


def _work() -> int:
    total = 0
    for i in range(800):
        total += i * i % 7
    counts: dict[str, int] = {}
    for line in _TEXT.splitlines():
        for token in line.lower().split():
            counts[token] = counts.get(token, 0) + 1
    return total + len(counts) + sum(len(m.group("msg")) for m in _PATTERN.finditer(_TEXT))


def sample() -> float:
    """Seconds that one calibration unit takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Sampler:
    """Times the calibration unit every INTERVAL_S of wall time while active.

    The samples are taken in a SIGALRM handler, so they land inside ops as
    well as between them; Python runs the handler in the main thread between
    bytecodes. ``spent`` is the wall time the handler has taken, which the
    harness takes off the latency of the op it interrupted. Each sample is
    preceded by an unkept run of the unit that brings its code and data back
    into the caches, so that all samples are taken alike.
    """

    def __init__(self):
        self.stamps: list[float] = []  # perf_counter() at the end of each sample
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        begin = time.perf_counter()
        sample()
        self.samples.append(sample())
        end = time.perf_counter()
        self.stamps.append(end)
        self.spent += end - begin

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Host slowdown over [start, end]: the median of the samples taken
        in it, widened to the nearest ones outside until there are NEAREST."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.stamps)):
            if lo > 0 and (hi == len(self.stamps) or start - self.stamps[lo - 1] <= self.stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.samples[lo:hi]) / REFERENCE_S
