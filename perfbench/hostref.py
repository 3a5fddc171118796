"""Host-speed reference for the end-to-end timing metrics.

The benchmark shares its host, whose speed changes by up to 2x within
seconds and drifts over minutes (README.md, "Noise").  A fixed numpy kernel
that uses nothing from the package is timed before and after every timed
op and set-up child.  Each time is multiplied by ``REF_S`` over the mean of
the two reference samples around it, so it reads as it would on a host
where one reference pass takes ``REF_S``.  A change to the package moves the
op times and leaves the reference alone, so it shows in full; a slower host
moves both, and the ratio stays.

The kernel runs on as many threads as the timed work: one pass per thread,
timed together.  Over a 10-minute log, the one-thread kernel tracked the
interpreter-bound ops and the ``nproc``-thread kernel tracked the
``ring-detect`` op, whose field kernel runs on ``nproc`` threads.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REF_S = 0.015       # one pass, one thread, on the quiet host (README.md)
REPEATS = 3         # passes per sample; the fastest one counts
_X = np.linspace(0.1, 3.0, 1 << 16)


def kernel():
    """About 15 ms of complex exponentials on a 1 MiB array."""
    total = 0.0
    for _ in range(6):
        total += float(np.abs(np.exp(1j * _X) * np.exp(-_X * _X)).sum())
    return total


def scale(seconds, before, after):
    """A time measured between reference samples `before` and `after`,
    taken to the reference host."""
    return seconds * REF_S / (0.5 * (before + after))


class Reference:
    """Times the kernel on `threads` threads and keeps every sample."""

    def __init__(self, threads):
        self.threads = threads
        self.times = []
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None

    def _pass(self):
        if self._pool is None:
            kernel()
        else:
            list(self._pool.map(lambda _: kernel(), range(self.threads)))

    def sample(self):
        """The fastest of REPEATS passes, in seconds; also kept in times."""
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._pass()
            best = min(best, time.perf_counter() - t0)
        self.times.append(best)
        return best

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
