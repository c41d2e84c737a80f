"""Machine-speed probe: times a fixed pure-Python loop all through a run.

On a shared host the speed of one core can drift by tens of percent
within a minute, which swamps the differences a benchmark is meant to
show.  The probe runs a fixed reference loop ``EDGE_SAMPLES`` times when
a timed region starts and ends, and every ``INTERVAL_S`` in between (from
``SIGALRM``, so it samples the same thread the workload runs on), and
records its time.

A raw time from the region, minus the time spent in the probe, times a
speed factor is the time the same work would take at the nominal speed,
where one reference loop takes ``NOMINAL_S``: ``factor`` uses every
sample of the region, ``local_factor`` the samples around one interval.
The factor is the reference's slowdown raised to ``SENSITIVITY``: the
host switches between a fast and a slow state (about 2.1 and 3.2 ms per
reference loop on a 2-vCPU Xeon guest at 2.1 GHz), and the workloads,
which mix interpreter and NumPy work, slow down less than the pure
interpreter loop does.  Of the exponents 0.5, 0.75 and 1, 0.75 gave the
smallest run-to-run quartile spread over the three workloads (20 to 27
runs each); with no correction the spread reached 0.30 of the median.
"""

import signal
import statistics
import time

#: time of one reference loop at the nominal speed
NOMINAL_S = 0.0025
#: how strongly the workloads follow the reference loop's speed (see above)
SENSITIVITY = 0.75
#: seconds between samples inside a timed region
INTERVAL_S = 0.1
#: samples taken as a region starts and as it ends, for short regions
EDGE_SAMPLES = 3


def reference_loop():
    """Fixed interpreter-bound work: 20,000 list reads and float operations."""
    data = [float(i) for i in range(64)]
    acc = 0.0
    for i in range(20_000):
        acc += data[i & 63] * 1.0001 + (i % 7) * 0.5
    return acc


class SpeedProbe:
    """Context manager sampling the reference loop through a timed region."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval  # None: sample only as the region starts and ends
        self.samples = []  # (midpoint on the perf_counter clock, seconds)
        self.spent = 0.0  # seconds spent inside the probe, to subtract from raw times
        self._previous = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        for _ in range(EDGE_SAMPLES):
            self.sample()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self.sample()

    @property
    def factor(self):
        """Multiply a raw time (probe time removed) by this for nominal speed."""
        return (NOMINAL_S / statistics.median(d for _, d in self.samples)) ** SENSITIVITY

    def local_factor(self, start, end, margin=0.25):
        """Speed factor from the samples within ``margin`` seconds of [start, end].

        Falls back to the three samples nearest the interval's midpoint.
        """
        near = [d for t, d in self.samples if start - margin <= t <= end + margin]
        if len(near) < 3:
            mid = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return (NOMINAL_S / statistics.median(near)) ** SENSITIVITY
