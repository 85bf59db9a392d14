"""How fast the host runs Python at the moment, measured with a fixed
standard-library kernel, so operation times can be put on a common footing.

The reference machine is a virtual machine on a shared host.  Its speed
changes by up to 2x within seconds and drifts by 20-30 % over minutes, as
other tenants come and go, which is longer than one pass.  While a pass
runs, ``Sampler`` times a short probe every ``PROBE_EVERY_S`` of CPU time,
from a signal handler, so the probes also fall inside long operations.
The time between two probes is scaled by the mean of their readings:

    scaled = measured * REFERENCE_PROBE_S / mean(probe before, probe after)

and an operation's scaled time sums its pieces between probes, with the
probes' own time left out.  The kernel uses nothing from ``qspace``, so a
change to the package does not move the probe, and a change that makes
``qspace`` faster shows in full.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# The probe's usual reading inside a worker on the 2-vCPU reference machine
# (Python 3.11.7).  It only sets the scale: scaled times are seconds at that
# machine's usual speed.
REFERENCE_PROBE_S = 0.00093
PROBE_EVERY_S = 0.05
_REPEATS = 3


def _kernel():
    """Products of sparse polynomials with Fraction coefficients, in dicts
    keyed by exponent tuples: the kind of work qspace's layers do."""
    p = {(i, 3 - i): Fraction(i + 1, 3) for i in range(4)}
    q = {(i, i % 2): Fraction(2, i + 1) for i in range(4)}
    r = p
    for _ in range(3):
        out = {}
        for (a, b), c in r.items():
            for (d, e), f in q.items():
                key = (a + d, b + e)
                v = out.get(key, 0) + c * f
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        r = out
    return r


def probe():
    """Median time of a few runs of the kernel, in seconds.  The garbage
    collector is off meanwhile: a collection of the workload's objects,
    which the kernel's allocations could trigger, is not host speed."""
    clock = time.perf_counter
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REPEATS):
            t0 = clock()
            _kernel()
            times.append(clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Probes the host at entry, at exit and every ``PROBE_EVERY_S`` of the
    process's CPU time in between (``ITIMER_PROF``).  A disabled sampler
    takes no probes and scales nothing; traced passes use one, because
    their span times must not contain probes."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.marks = []  # (start, end, reading) of every probe, in order
        self._previous = None

    def _probe(self, *_):
        t0 = time.perf_counter()
        reading = probe()
        self.marks.append((t0, time.perf_counter(), reading))

    def __enter__(self):
        if self.enabled:
            self._probe()
            self._previous = signal.signal(signal.SIGPROF, self._probe)
            signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._previous)
            self._probe()
        return False

    def reading(self):
        """The median probe reading, or None without probes."""
        return statistics.median(m[2] for m in self.marks) if self.marks else None

    def scale(self, spans):
        """For each ``(start, end)`` of ordered, disjoint spans timed inside
        the sampler: its time without the probes in it, and that time scaled
        to the host's speed."""
        if not self.enabled:
            return [(end - start, end - start) for start, end in spans]
        marks = self.marks
        out = []
        k = 0
        for start, end in spans:
            # the gap after probe k runs from marks[k][1] to marks[k + 1][0]
            while k + 1 < len(marks) and marks[k + 1][0] <= start:
                k += 1
            net = scaled = 0.0
            j = k
            while j + 1 < len(marks) and marks[j][1] < end:
                piece = min(end, marks[j + 1][0]) - max(start, marks[j][1])
                if piece > 0:
                    net += piece
                    scaled += piece * 2 * REFERENCE_PROBE_S / (marks[j][2] + marks[j + 1][2])
                j += 1
            out.append((net, scaled))
        return out
