"""The speed gauge: timings read at a fixed reference speed.

The shared virtual machines the benchmark runs on change speed by up to 2x,
in phases that last from under a second to minutes, and a whole run can
fall into a slow phase.  While the gauge runs, a timer signal runs a fixed
pure-Python reference kernel, which does not touch gha, every
GAUGE_EVERY_S seconds.  A timed stretch (a job, a set-up) is read as its
wall time less the kernel runs inside it, times REF_NOMINAL_S times the
mean speed (1 / kernel time) of the samples taken during it.  A change to
gha moves the job times and not the kernel's, so it shows in full; a slow
phase slows both and cancels out.

This module imports only what the kernel needs, so that ``run.py`` can
start the gauge before it imports anything else and read its own set-up
time against it.
"""

import bisect
import signal
import time
from array import array
from fractions import Fraction

clock = time.perf_counter

# The reference kernel's time on a fast phase of the machine the benchmark was
# written on (2 vCPUs, Python 3.11): a timing scaled by the gauge reads as it
# would have there.
REF_NOMINAL_S = 0.00045
GAUGE_EVERY_S = 0.025  # timer period while the gauge runs
GAUGE_WINDOW = 5  # fewest samples that give the speed during a stretch
WARM_UP = 16  # kernel runs before the first sample, past the interpreter's specialisation

_REF_A = tuple(Fraction(i % 7 - 3, 1 + i % 4) for i in range(12))
_REF_B = tuple(Fraction(2 * i % 5 - 2, 1 + i % 3) for i in range(12))


def reference_kernel():
    """Fixed work of the kind gha does (exact rational products, dicts,
    sorting), from the standard library only."""
    c = [0] * (len(_REF_A) + len(_REF_B) - 1)
    for i, x in enumerate(_REF_A):
        for j, y in enumerate(_REF_B):
            c[i + j] += x * y
    d = {}
    for k, v in enumerate(c):
        d[k % 5, k] = v
    return sorted(d.items())


class SpeedGauge:
    """Samples the reference kernel and scales wall times to the reference speed.

    Between ``start`` and ``stop`` a timer signal takes a sample every
    GAUGE_EVERY_S seconds, in the middle of a job as well as between jobs;
    ``sample`` takes one at once.  Samples are evenly spaced in time, so
    the mean of their speeds is the mean speed over a stretch, also when
    the machine changed phase during it.
    """

    def __init__(self) -> None:
        self.starts = array("d")  # start of each sample
        self.kernel_s = array("d")  # its duration
        for _ in range(WARM_UP):
            reference_kernel()

    def sample(self) -> float:
        t0 = clock()
        reference_kernel()
        t1 = clock()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        return t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def settle(self) -> None:
        """Stop the timer and take GAUGE_WINDOW samples at once, so that a
        stretch that just ended has samples on its far side."""
        self.stop()
        for _ in range(GAUGE_WINDOW):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S times the mean speed of the samples from ``start`` to
        ``end``, or of the GAUGE_WINDOW nearest to them when there are fewer."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        if hi - lo < GAUGE_WINDOW:
            i = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(i - GAUGE_WINDOW // 2, len(self.starts) - GAUGE_WINDOW))
            hi = lo + GAUGE_WINDOW
        speeds = [1.0 / k for k in self.kernel_s[lo:hi]]
        return REF_NOMINAL_S * sum(speeds) / len(speeds)

    def scaled(self, start: float, wall: float) -> float:
        """``wall`` seconds from ``start`` at the reference speed, less the
        samples taken inside them."""
        end = start + wall
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return (wall - sum(self.kernel_s[lo:hi])) * self.scale(start, end)

    def quantiles_ms(self) -> str:
        """The kernel's time at p10 / p50 / p90 over every sample, for the log."""
        kernel = sorted(self.kernel_s)
        at = [kernel[round(q * (len(kernel) - 1))] * 1e3 for q in (0.1, 0.5, 0.9)]
        return f"{len(kernel)} samples, reference kernel {at[0]:.3f} / {at[1]:.3f} / {at[2]:.3f} ms at p10 / p50 / p90"
