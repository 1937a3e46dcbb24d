"""Machine-speed probe: scale measured times to a reference speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes, and a whole run can land in a slow
spell.  While a worker measures, a wall-clock timer interrupts it every
:data:`INTERVAL_S` and times one fixed chunk of pure-Python work.  The
chunk's speed relative to the reference, ``REFERENCE_S / chunk time``,
averaged over the samples of a phase is the machine's mean speed over
that phase: the samples are evenly spaced in wall time, so a slow spell
weighs in as long as it lasted.  Every time the worker reports is
multiplied by that mean, so it reads in seconds at the reference speed
(the speed at which the chunk takes :data:`REFERENCE_S`).  A change to
the program moves these times as it moves wall time; a slow spell of
the machine moves the chunk too, and cancels out.

The time spent in the probe itself is counted in :attr:`SpeedProbe.spent`
so that timed segments can leave it out.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

#: Seconds between two samples.
INTERVAL_S = 0.02
#: The chunk's median time on a quiet 2-vCPU machine (Xeon, 2.0 GHz),
#: which defines the reference speed.
REFERENCE_S = 75e-6


def chunk() -> int:
    """Fixed pure-Python work: dictionary reads and writes, calls, strings."""
    table: dict[int, int] = {}
    total = 0
    for i in range(400):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


class SpeedProbe:
    """Samples the chunk's time on a timer while it is started."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: Chunk times in seconds, in the order they were taken.
        self.samples = array("d")
        #: Seconds spent inside the probe, its bookkeeping included.
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal) -> None:
        start = self.clock()
        chunk()
        self.samples.append(self.clock() - start)
        self.spent += self.clock() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """A position in the samples, to pass to :meth:`factor` later."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """The mean of ``REFERENCE_S / chunk time`` over the samples since
        ``since``: the machine's mean speed relative to the reference.

        A phase too short to have been sampled takes one sample now.
        """
        if len(self.samples) == since:
            self.sample()
        return statistics.fmean(REFERENCE_S / seconds for seconds in self.samples[since:])
