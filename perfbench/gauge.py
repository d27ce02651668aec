"""A fixed CPU kernel that measures how fast the machine runs right now.

The benchmark shares a small machine with other work, and the speed the
machine gives one process drifts by 20-30% within minutes. `Gauge.time()`
runs the same work on every call, of the kinds a scanpose step is made of:
small numpy calls and interpreter arithmetic, whose time is call overhead,
then ufuncs over arrays larger than the caches close to the core and a
random gather. Its arrays are allocated once, in `__init__`, and every call
writes into them with `out=`, so the gauge allocates no array memory while
it runs. Its time follows the machine and not the program's heap, and no
change to the program can move it.

An untraced run's worker times the gauge before every op, and five times
before and after its timed window, and multiplies its times by
`REFERENCE_MS` over the mean of those runs. Its times then read as
milliseconds on a machine that runs the gauge in `REFERENCE_MS`. The mean,
not the median: the machine switches between a fast and a slow state within
seconds, a gauge run sees one of them and an op of a second or two sees a
mix, so the share of time in each state is what counts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# gauge time, in ms, of the reference speed the scaled times are given at
REFERENCE_MS = 10.0
SMALL_REPS = 400
BIG = 50_000
BIG_REPS = 8


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((16, 12))
        self.b = rng.standard_normal((12, 8))
        self.c = np.empty((16, 8))
        self.v = rng.standard_normal(64)
        self.w = np.empty(64)
        self.s = np.empty(64)
        self.big_v = rng.standard_normal(BIG)
        self.big_w = np.empty(BIG)
        self.big_s = np.empty(BIG)
        self.image = rng.standard_normal((256, 256))
        self.index = rng.integers(0, self.image.size, BIG // 2)
        self.gathered = np.empty(BIG // 2)
        self.samples = []

    def time(self) -> float:
        """Runs the kernel once and returns, and records, its seconds."""
        a, b, c, v, w, s = self.a, self.b, self.c, self.v, self.w, self.s
        t0 = time.perf_counter()
        # call overhead: small arrays and interpreter arithmetic
        x = 0
        for i in range(SMALL_REPS):
            np.matmul(a, b, out=c)
            np.multiply(v, 0.5, out=w)
            np.add(w, v, out=s)
            np.exp(s, out=w)
            np.sqrt(np.abs(w, out=s), out=w)
            for j in range(16):
                x += j * i
        # kernel time: ufuncs over arrays larger than the caches close to
        # the core, and a random gather like bilinear sampling's
        v, w, s = self.big_v, self.big_w, self.big_s
        for _ in range(BIG_REPS):
            np.multiply(v, 0.5, out=w)
            np.add(w, v, out=s)
            np.exp(s, out=w)
            np.tanh(w, out=s)
            np.take(self.image, self.index, out=self.gathered)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def scale(self) -> float:
        """Factor that turns seconds measured while the recorded runs were
        made into reference seconds."""
        return REFERENCE_MS / (1e3 * statistics.mean(self.samples))
