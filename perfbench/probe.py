"""A speed probe that scales measured times to a reference machine speed.

The 2-core virtual machine this benchmark was tuned on changes speed by up
to a factor of two, over tens of milliseconds as over minutes, in CPU time
as in wall time.  A fixed loop timed between the commands of one process
tracks that change: over 374 poly commands, a command's time and the
loop's correlated at 0.89 to 0.95, and dividing the one by the other halved
the commands' spread (coefficient of variation 0.18 to 0.21 down to 0.07
to 0.10).  A loop timed in another process, or seconds apart,
does not track it.

So the probe times the loop on a timer signal, every ``INTERVAL_S``, in the
worker process itself while it sets up and runs the workload.  A region's
time is measured less the probe's own time in it, then multiplied by
``REF_S`` times the mean speed (one over the loop time) of the samples taken
in it: work done is speed integrated over time, so speeds are averaged, not
times.  The loop uses the standard library only, so no change to stirlab
moves it.
"""
from __future__ import annotations

import json
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.04
# the loop's time in the machine's fast periods; scaled times are seconds
# at that speed
REF_S = 0.0011


def calibration_loop() -> None:
    """A fixed mix of the kinds of work stirlab does: tuples counted in a
    dict, Fraction and big-integer arithmetic, sorting and JSON rendering."""
    counts: dict = {}
    total = Fraction(0)
    for i in range(1, 300):
        word = tuple((i * k) % 5 for k in range(6))
        counts[word] = counts.get(word, 0) + 1
        total += Fraction(i, i + 1)
    json.dumps([str(total), sorted(counts.items())])


class Probe:
    """Loop timings taken on SIGALRM, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        # called with the seconds each sample took, to leave them out
        self.on_tick = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        took = time.perf_counter() - t0
        self.spent += took
        if self.on_tick is not None:
            self.on_tick(took)

    def start(self) -> None:
        """Install the handler and take a first sample at once, so every
        region that starts here holds at least one."""
        signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> tuple[int, float]:
        """The current position, for ``factor`` and ``spent_since``."""
        return len(self.samples), self.spent

    def spent_since(self, mark: tuple[int, float]) -> float:
        return self.spent - mark[1]

    def factor(self, mark: tuple[int, float] = (0, 0.0)) -> float:
        """REF_S over the harmonic mean of the loop times since ``mark``;
        with no sample since then, over the last one; 1 for a probe never
        started."""
        since = self.samples[mark[0]:] or self.samples[-1:]
        return REF_S / statistics.harmonic_mean(since) if since else 1.0
