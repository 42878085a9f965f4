"""Reference clock: CPU time expressed in nominal seconds.

The machines this benchmark runs on change speed by tens of percent
within seconds (frequency scaling, a busy hyperthread sibling, other
tenants), so raw times of identical work scatter widely.  Every time the
benchmark reports is therefore divided by the CPU time of a fixed
reference kernel taken at the same moment on the same core, then
multiplied by NOMINAL_REF_S, so that figures still read in seconds.

The kernel is pure-Python exact arithmetic (``fractions.Fraction``), the
same kind of work ncrat does, and it imports no ncrat code: no change to
the program can move it.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from fractions import Fraction

# A round figure near the median CPU time of one reference_unit() on the
# machine the benchmark was written on (1.3 to 2.5 ms seen; README.md).
NOMINAL_REF_S = 0.002

_REF_N = 7
_REF_MATRIX = tuple(
    tuple(Fraction(1, i + j + 1) + (1 if i == j else 0) for j in range(_REF_N))
    for i in range(_REF_N)
)
REF_CHECKSUM = Fraction(3577562384224548869428843, 3421149532016026888461384)


def reference_unit() -> Fraction:
    """Gauss-Jordan elimination on a fixed 7x7 shifted Hilbert matrix."""
    a = [list(row) for row in _REF_MATRIX]
    for c in range(_REF_N):
        p = a[c][c]
        row_c = a[c]
        for r in range(_REF_N):
            if r != c and a[r][c]:
                f = a[r][c] / p
                a[r] = [x - f * y for x, y in zip(a[r], row_c)]
    return a[_REF_N - 1][_REF_N - 1]


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to one CPU.

    Work and reference then run on the same core; the OS cannot migrate
    an operation to a core of another speed half way through.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def single_threaded_env(env: dict) -> dict:
    """Environment that keeps numpy's BLAS to one thread."""
    out = dict(env)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        out[key] = "1"
    return out


class SpeedProbe:
    """A background thread that times reference_unit() every ``period``
    seconds, while the main thread works on the same core.

    The main thread measures its work with ``time.thread_time``; ``factor``
    turns those CPU seconds, spent over a wall interval, into nominal
    seconds, from the median sample in and around the interval.  The
    samples run interleaved with the work (the interpreter lock hands over
    between the threads), so a speed change during a long operation is
    seen.  A child process started meanwhile shares the core as well.
    Use as a context manager.
    """

    def __init__(self, period: float = 0.02):
        self.period = period
        self.times: list[float] = []  # wall midpoint of each sample
        self.durations: list[float] = []  # CPU seconds of each sample
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    def _loop(self):
        while not self._stop.wait(self.period):
            self.sample()

    def sample(self):
        w0 = time.perf_counter()
        c0 = time.thread_time()
        value = reference_unit()
        c1 = time.thread_time()
        w1 = time.perf_counter()
        if value != REF_CHECKSUM:
            raise RuntimeError("reference kernel returned a wrong value")
        with self._lock:
            self.times.append((w0 + w1) / 2)
            self.durations.append(c1 - c0)

    def factor(self, w0: float, w1: float, margin: float = 0.1, at_least: int = 5) -> float:
        """NOMINAL_REF_S over the local reference time around [w0, w1]."""
        with self._lock:
            times, durations = list(self.times), list(self.durations)
        lo = bisect.bisect_left(times, w0 - margin)
        hi = bisect.bisect_right(times, w1 + margin)
        while hi - lo < at_least and (lo > 0 or hi < len(times)):
            # widen towards the nearer neighbour until enough samples
            left = w0 - times[lo - 1] if lo > 0 else float("inf")
            right = times[hi] - w1 if hi < len(times) else float("inf")
            if left <= right:
                lo -= 1
            else:
                hi += 1
        return NOMINAL_REF_S / statistics.median(durations[lo:hi])
