"""Host-speed reference: timings scaled to a steady machine.

The benchmark runs on a few cores of a shared host whose speed for the same
pure-Python work drifts by a third or more within a minute.  Every timing the
benchmark reports is therefore taken together with a fixed reference kernel
run close to it in time, and scaled by how much faster or slower that kernel
ran than its nominal time:

    scaled seconds = measured seconds * REF_NOMINAL_S / mean reference time

The kernel imports nothing from the program, so a change to the program moves
the measured seconds and never the reference.  It does the kind of work the
program does (tuple composition like permutation products, dict stores keyed
by tuples, Fraction and int arithmetic), so the host's swings slow both alike.

A Sampler runs the kernel every INTERVAL_S of wall time from a SIGALRM
handler while a worker computes (a set-up, a repetition or one CLI command)
and keeps (midpoint, duration) pairs.  The time spent in the kernel is counted
in ``busy_s`` and taken out of every interval that contains it, spans of the
tracer included; a HostScale made from the samples gives the scale of an
interval.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from fractions import Fraction

# Nominal kernel time: about what one kernel takes on an idle core of the
# machine the benchmark was tuned on.  It only sets the unit, so that scaled
# seconds read close to wall seconds there.
REF_NOMINAL_S = 0.0012
INTERVAL_S = 0.025
# An interval is scaled by at least this many samples, so that a short one is
# not scaled by a single sample.
MIN_SAMPLES = 6

_PERM = tuple(range(1, 24)) + (0,)
_SWAP = (1, 0) + tuple(range(2, 24))


def reference_kernel() -> float:
    """Seconds taken by one run of the fixed reference work."""
    start = time.monotonic()
    p = tuple(range(24))
    seen = {}
    total = Fraction(0)
    for i in range(300):
        p = tuple(_PERM[x] for x in p) if i % 3 else tuple(_SWAP[x] for x in p)
        seen[p] = seen.get(p, 0) + i
        total += Fraction(i % 7, 11 + i % 5)
    if total <= 0 or not seen:
        raise RuntimeError("reference kernel computed nothing")
    return time.monotonic() - start


class Sampler:
    """The reference samples of one process and the time spent taking them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, duration)
        self.busy_s = 0.0
        self._previous_handler = None

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.monotonic()
            duration = reference_kernel()
            end = time.monotonic()
            self.samples.append(((start + end) / 2, duration))
            self.busy_s += end - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample every INTERVAL_S until stop(); main thread only."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)


class HostScale:
    """Scale factors for intervals, from the samples of one process.

    The samples are (midpoint, duration) pairs in time order, possibly taken
    by another process: every process of the benchmark reads one monotonic
    clock.
    """

    def __init__(self, samples: list):
        if not samples:
            raise RuntimeError("no reference samples to scale a timing by")
        self.mids = [mid for mid, _ in samples]
        self.prefix = list(itertools.accumulate((d for _, d in samples), initial=0.0))

    def __call__(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean reference time during [start, end].

        An interval that holds fewer than MIN_SAMPLES samples takes the
        nearest ones outside it too.  The mean, not the median: a stall of
        the host slows the program for the same share of the time as the
        reference.
        """
        mids = self.mids
        lo, hi = bisect.bisect_left(mids, start), bisect.bisect_right(mids, end)
        while hi - lo < min(MIN_SAMPLES, len(mids)):
            if hi == len(mids) or (lo > 0 and start - mids[lo - 1] <= mids[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REF_NOMINAL_S * (hi - lo) / (self.prefix[hi] - self.prefix[lo])
