"""How fast the host runs, sampled inside a child while the program runs.

The host's speed drifts by as much as two times within seconds
(bench/README.md), so a timing is only comparable across runs once it is
divided by the host's speed at the time it was taken.  A ``Metronome``
interrupts its process every ``INTERVAL_S`` seconds of wall time (SIGALRM)
and runs a short fixed loop, a tick, that runs no package code and leaves
the collector's counts as it found them.  The ticks fall between the
program's bytecodes, evenly over its wall time, so their mean length
follows the host's speed during exactly the work being timed.  The time
the ticks take is taken out of the child's times again.

A tick's length is the CPU time of the thread that runs it
(``time.thread_time``), not its wall time: a tick that starts while a
``--jobs 2`` worker is due the GIL waits out that worker's switch interval
(5 ms), and that wait is the program's own work, not the host's slowness.

    slowdown = mean tick length / NOMINAL_S
    reference seconds = (wall seconds - ticks x mean tick length) / slowdown

A reference second is a second on a host where a tick takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.005
ITERATIONS = 50
# A tick's length on the reference host: 0.1 s per 20000 iterations.
NOMINAL_S = 0.1 * ITERATIONS / 20000


def tick() -> tuple[float, float]:
    """Run the fixed loop once; return its start (``time.perf_counter``) and
    its length in seconds of this thread's CPU time."""
    enabled = gc.isenabled()
    gc.disable()
    table = {}
    start = time.perf_counter()
    cpu = time.thread_time()
    for i in range(ITERATIONS):
        table[Fraction(i, 7)] = Fraction(i % 13, 3) + Fraction(1, 2)
    length = time.thread_time() - cpu
    del table
    if enabled:
        gc.enable()
    return start, length


class Metronome:
    """Ticks on SIGALRM from ``start`` to ``stop``; keeps every (start, length)."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        self.ticks.append(tick())

    def start(self) -> None:
        """Tick once now, then every INTERVAL_S until ``stop``."""
        self.ticks.append(tick())
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the alarms and tick once more, so even a short child has two ticks."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.ticks.append(tick())


def slowdown(ticks) -> float:
    """The host's slowdown over some ticks: their mean length over NOMINAL_S."""
    return sum(length for _, length in ticks) / (len(ticks) * NOMINAL_S)


def reference_seconds(wall_s: float, n_ticks: int, near) -> float:
    """``wall_s`` less ``n_ticks`` ticks, in reference seconds, at the speed
    of ``near``, the ticks taken around the work."""
    factor = slowdown(near)
    return (wall_s - n_ticks * factor * NOMINAL_S) / factor
