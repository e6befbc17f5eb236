"""Machine-speed guard: a fixed pure-Python loop timed while steps run.

On a shared machine the CPU's speed drifts by a factor of up to two, both
within seconds and between phases lasting many minutes. While a measured step runs, an interval timer interrupts it every
``SAMPLE_INTERVAL_S`` and times one run of the reference loop. The step's
duration, less the time spent in those samples, is rescaled to the speed
the loop has at ``NOMINAL_REF_S``:

    scaled = (raw - sampling time) * NOMINAL_REF_S / mean(samples in the step)

where the mean leaves out outliers (see :func:`typical`). A step too short
to be interrupted is followed by ``SHORT_STEP_SAMPLES`` samples instead.
The loop shares nothing with quineset and allocates no objects in its
body: every integer it touches is one of CPython's cached small ints.
Sampling takes about 1 % of a step's time.

Scaling only helps where the sampled process is the one doing the work.
The CLI workload's work runs in child processes, so its timeline is not
scaled (``Timeline(scale=False)``).
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# Median reference-loop time on the machine the README describes. Scaled
# times read as if every step had run at that speed.
NOMINAL_REF_S = 0.000220

SAMPLE_INTERVAL_S = 0.02
SHORT_STEP_SAMPLES = 5

# Set-up is repeated and its median reported: at least SETUP_MIN_REPEATS
# times, and more while the repetitions so far took under SETUP_MIN_S,
# which gives millisecond set-ups enough samples to be steady.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 0.5


def setup_repeats():
    """Yield repetition indexes until set-up has been measured enough."""
    start = time.perf_counter()
    rep = 0
    while rep < SETUP_MIN_REPEATS or (
        rep < SETUP_MAX_REPEATS and time.perf_counter() - start < SETUP_MIN_S
    ):
        yield rep
        rep += 1


def reference_loop():
    acc = 0
    for _ in range(20):
        for b in range(200):
            acc = (acc ^ b) & 127
    return acc


def timed_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Timeline:
    """Measured steps with the reference speed sampled during each.

    ``events`` is a JSON-ready list of ``[label, net_s, typical_sample_s,
    samples]``, so a worker process can hand it to the parent, which scales
    it with :func:`scaled_steps`. With ``scale=False`` no sampling interrupts
    the steps; each is followed by ``SHORT_STEP_SAMPLES`` samples that are
    reported but not used to scale, and its ``samples`` entry is 0.
    """

    def __init__(self, scale=True):
        self.events = []
        self.scale = scale
        self._samples = []

    def _sample(self, _signum, _frame):
        self._samples.append(timed_reference())

    @contextmanager
    def step(self, label):
        self._samples = []
        if self.scale:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if self.scale:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            samples = self._samples
            net = elapsed - sum(samples)
            if not samples:
                samples = [timed_reference() for _ in range(SHORT_STEP_SAMPLES)]
            used = len(samples) if self.scale else 0
            self.events.append([label, net, typical(samples), used])


def typical(samples):
    """Mean of the samples, leaving out any over 1.5 times their median.

    A sample taken while this process was descheduled, or just woken from
    waiting on a child, reads several times too slow and says nothing about
    the speed the measured work had.
    """
    cut = 1.5 * statistics.median(samples)
    return statistics.fmean(x for x in samples if x <= cut)


def scaled_steps(events):
    """``(label, raw_s, scaled_s)`` for every step, in order."""
    return [(label, net, net * NOMINAL_REF_S / speed if used else net)
            for label, net, speed, used in events]


def reference_median(events):
    """Median reference-loop time over the run's steps."""
    return statistics.median(speed for _label, _net, speed, _n in events)
