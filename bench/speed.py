"""The host's speed, sampled while the benchmark measures.

The machines this benchmark runs on share their cores: the same pass of
the same inputs can take 40% longer from one half-minute to the next, and
process CPU time moves with wall time, so neither averages it out.  A
``Speedometer`` therefore times a fixed piece of ``fractions.Fraction``
arithmetic -- the program's own scalar type, but none of its code --
at the start and end of every timed interval and every ``PERIOD``
seconds in between (from a SIGALRM handler), and reports the interval in
seconds at the reference speed: its wall time, less the time spent
sampling, times the mean over those samples of ``REF_SAMPLE_S / sample``.
A sample that takes ``REF_SAMPLE_S`` means the reference speed.
"""

import signal
import time
from fractions import Fraction

PERIOD = 0.25          # seconds of wall time between periodic samples
REF_SAMPLE_S = 0.005   # one sample at the reference speed

_VALUES = [Fraction(p, q) for p in range(1, 9) for q in range(1, 9)]


def _sample_work():
    acc = 0
    for x in _VALUES:
        for y in _VALUES[:12]:
            acc += (x * y + y / x - x).numerator & 1
    return acc


class Speedometer:
    """``with Speedometer() as speed:`` samples until the block ends.

    Time an interval with ``token = speed.begin()`` and
    ``speed.end(token)``.  Both take a sample, so that even an interval of
    a few milliseconds is scaled by the speed right around it; longer
    intervals also average the periodic samples taken inside them."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0     # wall time spent sampling
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:       # the timer fired during a sample
            return
        self._busy = True
        start = time.perf_counter()
        _sample_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def now(self):
        """A wall clock that does not advance while a sample runs."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def begin(self):
        self._sample()
        return len(self.samples) - 1, self.now()

    def end(self, token):
        """(wall seconds, reference seconds) since ``begin`` returned
        ``token``, both without the time spent sampling."""
        mark, start = token
        wall = self.now() - start
        self._sample()
        window = self.samples[mark:]
        return wall, wall * sum(REF_SAMPLE_S / s for s in window) / len(window)
