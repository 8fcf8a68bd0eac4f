"""Calibration probe: the host's current speed, measured next to each sample.

The shared host this benchmark was built on (an Intel Xeon with 2 vCPUs)
changes its effective CPU speed within a second and drifts over minutes:
this probe took 23 ms to 45 ms, and process CPU time rose with wall
time, so the slowdown is not time spent descheduled.  Medians within one
run cannot remove a drift that lasts the whole run.  So every timed
sample is also reported in reference seconds:

    reference_s = raw_s * P_REF_S / p

Here p is the mean of the probe times taken within HALF_WINDOW_S of the
sample, by the process that timed it.  Two probes next to a long sample
say little about it when the speed flips within a second; the window
averages the probes around it.  The probe does the kind of work the
symbolic layers do, exact `Fraction` arithmetic into a dict, over a few
MB of objects and with the collector off, so the program's own heap
does not enter its time.  P_REF_S is the probe's time at that host's
typical speed, so reference seconds read close to raw seconds there.
"""

import gc
import time
from fractions import Fraction

P_REF_S = 0.030
PROBE_REPEATS = 2
MIN_GAP_S = 0.5
HALF_WINDOW_S = 2.0


def _probe() -> list:
    # a few MB of live objects, so that cache contention slows the probe
    # as it slows the program
    items = [Fraction(i % 13 - 6, i % 5 + 1) for i in range(1, 6000)]
    acc = {}
    for i, f in enumerate(items):
        k = (i * 7919) % 1499
        acc[k] = acc.get(k, 0) + f * items[(i * 31) % len(items)]
    return sorted(acc.items())


def probe_s() -> float:
    """Fastest of a few probe runs, in seconds, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t = time.perf_counter()
            _probe()
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Sample and probe log of one process, read out in reference seconds.

    Call `record` after each timed sample and `probe` after each sample
    or batch of samples; probes closer than MIN_GAP_S are skipped.
    `results` then scales every sample by the mean of the probes within
    HALF_WINDOW_S of it.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.probes = []     # (seconds since t0 at mid-probe, probe_s)
        self.samples = []    # (key, start, end, raw seconds)
        self.probe()

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def probe(self) -> None:
        """Probe now, unless the last probe is under MIN_GAP_S old."""
        start = self.now()
        if self.probes and start - self.probes[-1][0] < MIN_GAP_S:
            return
        p = probe_s()
        self.probes.append((0.5 * (start + self.now()), p))

    def record(self, key, start: float, raw_s: float = None) -> None:
        """A sample that began at `start` (from `now()`) and ends now.
        `raw_s` overrides its duration, for a time measured elsewhere."""
        end = self.now()
        self.samples.append((key, start, end,
                             end - start if raw_s is None else raw_s))

    def speed(self, start: float, end: float) -> float:
        # never empty: a skipped probe means one under MIN_GAP_S before
        near = [p for t, p in self.probes
                if start - HALF_WINDOW_S <= t <= end + HALF_WINDOW_S]
        return sum(near) / len(near)

    def results(self):
        """({key: [raw seconds]}, {key: [reference seconds]})."""
        raw, ref = {}, {}
        for key, start, end, dt in self.samples:
            raw.setdefault(key, []).append(dt)
            ref.setdefault(key, []).append(
                dt * P_REF_S / self.speed(start, end))
        return raw, ref
