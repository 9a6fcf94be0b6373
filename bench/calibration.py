"""Machine-speed calibration for timings on a shared CPU.

On a shared machine the same pure-Python job can take 70% longer from one
second to the next, while its CPU time stays equal to its wall time: the
processor itself runs slower.  sample() times a fixed piece of pure
Python work of the same kind wehrhart does (Fraction arithmetic, dict and
tuple churn).  A wall time measured next to such samples is reported in
calibrated seconds: seconds on a machine where sample() takes REFERENCE_S.

The speed can change within one job, so Sampler also samples while the
job runs: a SIGALRM handler takes one sample every PERIOD_S, and the time
the handler takes is subtracted from the job's time.
"""

import signal
from fractions import Fraction
from statistics import mean
from time import perf_counter

ITERATIONS = 300
REFERENCE_S = 0.0011  # typical sample() time on the 2-CPU box the baseline was taken on
PERIOD_S = 0.05  # the sampler's overhead is about REFERENCE_S / PERIOD_S


def sample() -> float:
    """Wall seconds for a fixed amount of Fraction, dict and tuple work."""
    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, ITERATIONS):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return perf_counter() - start


def calibrated(seconds: float, sample_s: float) -> float:
    """seconds measured while sample() took `sample_s` seconds."""
    return seconds * REFERENCE_S / sample_s


class Sampler:
    """Times a region and samples the machine's speed around and during it.

        with Sampler() as timing:
            work()
        timing.elapsed, timing.seconds  # wall seconds, calibrated seconds

    One sample is taken on entry and one on exit, outside the region, so
    that a short region still gets an estimate.  Main thread only.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in the handler inside the region
        self.total = self.elapsed = self.seconds = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - start

    def __enter__(self):
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.total = perf_counter() - self._start  # the handler's time included
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
        self.elapsed = self.total - self.spent
        self.seconds = calibrated(self.elapsed, mean(self.samples))
        return False
