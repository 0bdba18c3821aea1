"""Machine-speed calibration, so that timings from runs made while the host
is busy and while it is idle can be compared.

The host this benchmark was built on runs the same interpreter-bound code up
to 1.6x faster or slower for stretches of 5 to 30 seconds, as other tenants
come and go, and whole runs often fall in one state or the other. A fixed
piece of work, independent of ``ontomap`` and shaped like the program's
(small numpy calls with ``math.fsum``, JSON parsing, an n=64 matrix product,
a Python loop), is timed between operations. Every time the benchmark
reports is multiplied by ``REFERENCE_MS`` over the median calibration time
measured within ``WINDOW_S`` of it.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

import gen_inputs
import reference

# Typical calibration time on the reference machine (2 cores, Python 3.11,
# numpy 2.4). It fixes the scale of every reported time, so changing it
# makes earlier results incomparable.
REFERENCE_MS = 3.6
# Between operations, calibrate once this much time has passed since the
# last burst; a burst is BURST samples, recorded as their median.
INTERVAL_S = 0.25
BURST = 5
WINDOW_S = 2.0


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.p = gen_inputs.stochastic(rng, 5, 5)
        self.q = gen_inputs.stochastic(rng, 5, 5)
        self.doc = json.dumps(gen_inputs.random_model(rng, 12))
        self.a = gen_inputs.stochastic(rng, 64, 64)
        self.bursts: list[tuple[float, float]] = []  # (time, ms)

    def _sample_ms(self) -> float:
        start = time.perf_counter()
        for _ in range(15):
            reference.kl_columns(self.p, self.q @ self.p)
        for _ in range(2):
            json.loads(self.doc)
        b = self.a
        for _ in range(3):
            b = self.a @ b
        math.fsum(b.ravel())
        s = 0
        for k in range(30000):
            s += k * k
        return 1e3 * (time.perf_counter() - start)

    def tick(self) -> None:
        """Calibrate if the last burst is older than INTERVAL_S."""
        now = time.perf_counter()
        if not self.bursts or now - self.bursts[-1][0] >= INTERVAL_S:
            ms = statistics.median(self._sample_ms() for _ in range(BURST))
            self.bursts.append((time.perf_counter(), ms))

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured over [start, end]."""
        near = [ms for t, ms in self.bursts if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_MS / statistics.median(near or [ms for _, ms in self.bursts])

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.bursts)
