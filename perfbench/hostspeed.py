"""Host speed gauge: a fixed reference loop timed between requests.

The shared hosts the benchmark runs on change speed by 1.5 times and more,
within seconds and over minutes, on every core and in CPU time as in wall
time.  A run's raw median then depends on how long the host spent in its
slow state, not on the program.  So the benchmark times this loop, which is
its own code and calls nothing of the package, at most every SAMPLE_EVERY
seconds between requests, and scales each call time by NOMINAL_S over the
mean of the two samples taken on either side of the call.  A time so
scaled reads as it would on a host where the loop takes NOMINAL_S; a change
to the program moves it as it moves the raw time.

The loop does small-int dict reads and writes and modular arithmetic, the
kind of work the package's interpreted code does, and allocates nothing the
garbage collector tracks, so the size of the program's heap does not reach
it.  A sample is the fastest of REPEATS timings, which drops a timer
interrupt caught in one of them.
"""

from __future__ import annotations

import time

LOOP_STEPS = 2000
REPEATS = 3
NOMINAL_S = 4.5e-4  # about the loop's median time within runs on a 2-vCPU x86-64 sandbox
SAMPLE_EVERY = 0.1  # seconds of wall time between samples


def _loop() -> int:
    d = {}
    s = 0
    for i in range(LOOP_STEPS):
        k = i & 63
        s = (s * 31 + d.get(k, i)) % 1000003
        d[k] = s
    return s


def sample() -> float:
    """Seconds the reference loop takes now: the fastest of REPEATS timings."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


class Gauge:
    """Scales call times by the samples taken on either side of them.

    `add` takes a raw call time and returns the scaled times that are now
    settled: none until the next sample is due, then every time held since
    the previous sample.  `flush` takes a last sample and settles the rest.
    """

    def __init__(self):
        self.last = sample()
        self.at = time.perf_counter()
        self.pending = []
        self.samples = [self.last]

    def add(self, dt: float) -> list:
        self.pending.append(dt)
        if time.perf_counter() - self.at < SAMPLE_EVERY:
            return []
        return self.flush()

    def flush(self) -> list:
        now = sample()
        f = 2 * NOMINAL_S / (self.last + now)
        out = [dt * f for dt in self.pending]
        self.pending = []
        self.last, self.at = now, time.perf_counter()
        self.samples.append(now)
        return out
