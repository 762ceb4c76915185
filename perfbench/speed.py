"""Machine-speed reference, for reporting times at a fixed machine speed.

On a shared host the speed of one core drifts by a large factor over tens of
seconds (neighbours compete for the core's caches and execution units), and
that drift moves every timing of pure-Python exact arithmetic alike.  The
benchmark therefore times this fixed kernel, which exercises the same kind
of work as the library (Fraction Gaussian elimination) but lives in the
benchmark's own files, next to every measured interval, and reports

    time × REFERENCE_S / (reference time measured around the interval)

that is, reference-seconds: the time the interval would have taken on a
machine on which the kernel takes REFERENCE_S.  A change to the library
cannot change the kernel.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Time of reference() on an idle core of the machine the first numbers were
# taken on (Python 3.11.7), so reference-seconds read close to seconds there.
REFERENCE_S = 0.00055
_SIZE = 6
_REPS = 2


def _eliminate() -> Fraction:
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(_SIZE)] for i in range(_SIZE)]
    d = Fraction(1)
    for k in range(_SIZE):
        d *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, _SIZE):
            f = a[i][k] * inv
            for j in range(k, _SIZE):
                a[i][j] -= f * a[k][j]
    return d


def reference() -> float:
    """Seconds taken by the fixed kernel, now.  The collector is off while it
    runs, so its time cannot depend on the library's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(_REPS):
            _eliminate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(refs: list[float]) -> float:
    """Factor from seconds to reference-seconds, given reference timings
    taken around an interval.  The median ignores a timing that was itself
    preempted."""
    return REFERENCE_S / statistics.median(refs)


class Speedometer:
    """Times the reference kernel every ``interval`` seconds of wall time,
    from a SIGALRM handler in the main thread, while the benchmark runs.

    No thread is started: the handler runs between the library's bytecodes.
    ``spent`` is the total time the handler took, which callers subtract from
    the intervals they measure.
    """

    def __init__(self, interval: float = 0.01, window: float = 0.06):
        self.interval = interval
        self.window = window
        self.stamps: list[float] = []
        self.refs: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        r = reference()
        self.stamps.append(time.perf_counter())
        self.refs.append(r)
        self.spent += r

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """scale() of the samples taken from ``window`` seconds before start
        to ``window`` seconds after end."""
        lo = bisect.bisect_left(self.stamps, start - self.window)
        hi = bisect.bisect_right(self.stamps, end + self.window)
        if lo == hi:
            raise RuntimeError("no reference sample near the interval")
        return scale(self.refs[lo:hi])
