"""How fast the machine runs, sampled while the benchmark measures.

On a shared host the speed of one CPU changes from moment to moment: an
interpreted loop repeated for seconds falls into a few distinct levels (about
1.0x, 1.7x and 2.1x its fastest time on a 2-vCPU x86-64 guest), each held for
a tenth of a second to several seconds, and the mix of levels drifts over
minutes. Wall time and CPU time grow alike, so neither can tell a slower
program from a slower moment.

``SpeedSampler`` runs a fixed pure-Python ``block`` of about a millisecond
from a timer signal every ``PERIOD_S`` of wall time while the benchmark measures.
The block touches nothing of the package under test, so no change to the
package can move it. A time measured between two ``Mark``\\ s is reported at
the reference speed::

    (time measured - time spent in the sampler) * mean(NOMINAL_S / block time)

which is the time the same work takes when the host runs the block in
``NOMINAL_S``: a slower program still reads slower, a slower moment does not.
Averaging the speed ratios, not the block times, weights every sampled moment
by the work it let through.
"""

import random
import signal
import statistics
import time
from dataclasses import dataclass

PERIOD_S = 0.025
# Time of one block at the fastest level seen on a 2-vCPU x86-64 host. It
# sets the scale of the reported seconds, never their ratios.
NOMINAL_S = 0.00075

# The block spends about three quarters of its time in an interpreted loop
# and a quarter reading floats scattered over ~13 MB. A slow moment that comes
# from a neighbour's use of the shared caches slows a program with a large
# working set more than the loop alone; on the select workload the loop alone
# read 4-8% slow in the slowest passes, the scattered reads alone as much
# fast, and this mix neither.
_LOOP_ITERATIONS = 6000
_FLOATS = [float(i) for i in range(400_000)]
_SCATTERED = random.Random(20240423).sample(range(len(_FLOATS)), 4500)


def block():
    """The reference work; returns its (fixed) result."""
    total, counts = 0, {}
    for i in range(_LOOP_ITERATIONS):
        key = (i * 7919) % 31
        counts[key] = counts.get(key, 0) + 1
        total += key * key
    floats = _FLOATS
    scattered = 0.0
    for i in _SCATTERED:
        scattered += floats[i]
    return total + len(counts) + scattered


@dataclass(frozen=True)
class Mark:
    wall: float
    in_sampler: float
    samples: int


class SpeedSampler:
    """Samples the machine's speed from SIGALRM between ``start`` and ``stop``.

    Only the main thread may start it. Python retries the system calls the
    signal interrupts, so the measured code runs as it would without it.
    """

    def __init__(self):
        self.block_s = []
        self.in_sampler_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        block()
        elapsed = time.perf_counter() - t0
        self.block_s.append(elapsed)
        self.in_sampler_s += elapsed

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def clock(self):
        """Wall seconds, less those spent in the sampler."""
        return time.perf_counter() - self.in_sampler_s

    def mark(self):
        return Mark(time.perf_counter(), self.in_sampler_s, len(self.block_s))

    def speed(self, since, until):
        """Mean of NOMINAL_S / block time over the samples between two marks.

        An interval with no sample of its own borrows the latest one before
        its end; with none at all the speed counts as nominal.
        """
        samples = (self.block_s[since.samples:until.samples]
                   or self.block_s[max(until.samples - 1, 0):until.samples])
        return statistics.fmean(NOMINAL_S / s for s in samples) if samples else 1.0

    def at_reference_speed(self, since, until, seconds=None):
        """``seconds`` (by default the wall time between the marks; the
        benchmark also passes the CPU seconds in between) less the time the
        sampler took in between, at the reference speed. The sampler runs on
        the measured thread, so its time counts in both."""
        if seconds is None:
            seconds = until.wall - since.wall
        return (seconds - (until.in_sampler - since.in_sampler)) * self.speed(since, until)
