"""A reference clock: the machine's speed, sampled inside a pass.

The benchmark shares its host, and the host's speed drifts by up to 1.9x over
seconds to minutes; CPU time drifts with wall time, so neither is steady. A
fixed kernel that imports nothing from quantbench (a product of two sparse
polynomials with Gaussian-rational coefficients, the kind of work quantbench
does) is timed in short bursts on the pass's own thread: once when the clock
starts, every ``PERIOD_S`` of wall time from a ``SIGALRM`` handler, and once
when it stops.

A pass's time in reference units, its wall time without the bursts divided
by the bursts' mean time, moves with the program's speed but far less with
the machine's.
"""

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.25


def _poly(n):
    return {(i, j): (Fraction(i + 1, j + 2), Fraction(j - i, i + 3))
            for i in range(n) for j in range(n - i)}


_A, _B = _poly(6), _poly(6)


def kernel():
    """One burst of reference work: about 10 ms at 2.1 GHz."""
    out = {}
    for (a1, a2), (ar, ai) in _A.items():
        for (b1, b2), (br, bi) in _B.items():
            key = (a1 + b1, a2 + b2)
            re, im = ar * br - ai * bi, ar * bi + ai * br
            if key in out:
                cr, ci = out[key]
                out[key] = (cr + re, ci + im)
            else:
                out[key] = (re, im)
    return out


class RefClock:
    """Times `kernel` bursts until `stop`; `bursts` holds their seconds."""

    def __init__(self):
        self.bursts = []
        self.busy_s = 0.0  # all the clock's own time, warm-up included

    def _burst(self):
        # The kernel makes no cycles. With the collector on, a burst would
        # time whichever collection of the program's heap it happens to
        # trigger.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.bursts.append(seconds)
        self.busy_s += seconds

    def _on_alarm(self, signum, frame):
        self._burst()
        # Re-armed from the end of the burst, so bursts never overlap.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self):
        self._burst()  # warm-up: counted in busy_s, not in the mean
        self.bursts.clear()
        self._burst()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._burst()

    @property
    def mean_s(self):
        return sum(self.bursts) / len(self.bursts)
