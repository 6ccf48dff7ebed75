"""A clock in reference seconds: wall time corrected for the host's speed.

On a shared host the CPU this benchmark gets runs the same Python code
up to 2x slower or faster from one minute to the next, and the swings
last seconds to minutes, longer than a round.  A fixed loop timed in
0.3-s chunks over one minute spread by a third of its median, and a
certification pass by as much, so a median over rounds cannot cancel
them: the whole run is slow or fast together.

:class:`SpeedClock` follows the host's speed instead.  Every
``PERIOD_S`` of wall time an interval timer interrupts the program, and
the handler times a fixed probe (dict, tuple, attribute and sort work,
like the interpreter-bound engines).  The wall time between two probes
is credited at the speed the last probes showed, as
``PROBE_REFERENCE_S / probe time``, so a second on a host running at
half speed counts as half a reference second.  The probes' own time is
not credited.  A reference second is thus the time a machine on which
the probe takes ``PROBE_REFERENCE_S`` would need.  A faster or slower
program shows as such; only the host's swings cancel.  Timing whole
certification passes this way took their spread from 0.32-0.41 of the
median to 0.02-0.03.

The disk is shared too: the same 1,350 fsyncs of one chaos campaign
took 0.67 s in one round and 1.43 s in another.  So while the clock
runs, ``os.fsync`` is wrapped: the wall time spent inside it is not
credited, and each call is credited ``FSYNC_REFERENCE_S`` instead.  A
change in how many fsyncs the program makes shows; what one costs on
the host's disk at that minute does not (nor would a change that made
each fsync itself dearer, say by syncing bigger files; the detail line
reports the calls and their wall time for that).

Only the end-to-end run uses it, from the start of the process through
the timed phase; the traced run times in wall seconds.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from typing import List, Optional

#: Wall time between probes.
PERIOD_S = 0.05

#: What one probe takes on the reference machine: about what it takes
#: on an Intel Xeon vCPU of a shared 2-vCPU host at its usual speed,
#: when it interrupts the benchmark (the program's work has evicted the
#: probe's from the caches, so it is slower than in a tight loop).
PROBE_REFERENCE_S = 0.002

#: What one fsync is credited, the reference machine's disk latency
#: (fsyncs of small files on ext4 over a virtual disk took 0.25 ms at
#: the median when the host was calm, 1 ms when it was busy).
FSYNC_REFERENCE_S = 0.0005

#: The speed is the median of this many most recent probes, so one probe
#: that the host interrupted does not move it.
PROBE_WINDOW = 3


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def key(self):
        return (self.a, self.b & 7)


def probe() -> int:
    """The fixed work whose time gives the host's speed."""
    table = {}
    for item in [_Item(i, i * 31) for i in range(600)]:
        key = item.key()
        table[key] = table.get(key, 0) + 1
    ordered = sorted((count, key) for key, count in table.items())
    return len(frozenset(table)) + len(ordered)


def time_probe() -> float:
    """One probe's wall time: the fixed work, three times over."""
    start = time.perf_counter()
    for _ in range(3):
        probe()
    return time.perf_counter() - start


class SpeedClock:
    """Reference seconds since :meth:`start`, probed by ``SIGALRM``."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.probe_wall_s = 0.0
        self.fsyncs = 0
        self.fsync_wall_s = 0.0
        self._ref = 0.0
        self._scale = 1.0
        self._mark: Optional[float] = None
        # fsync wall time and calls since the mark
        self._io_wall = 0.0
        self._io_calls = 0
        # bumped by every probe, so now() can tell one ran mid-reading
        self._generation = 0
        self._probing = False
        self._fsync = os.fsync

    def start(self) -> None:
        self.probes = [time_probe() for _ in range(PROBE_WINDOW)]
        self._scale = PROBE_REFERENCE_S / statistics.median(self.probes)
        self._mark = time.perf_counter()
        os.fsync = self._timed_fsync
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        os.fsync = self._fsync

    def _timed_fsync(self, fd) -> None:
        # No probe may run inside the timed call.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            start = time.perf_counter()
            try:
                self._fsync(fd)
            finally:
                spent = time.perf_counter() - start
                self._io_wall += spent
                self._io_calls += 1
                self.fsync_wall_s += spent
                self.fsyncs += 1
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _tick(self, _signum, _frame) -> None:
        if self._probing:  # the timer fired again during a probe
            return
        self._probing = True
        self._generation += 1
        # The interval closes at the speed now() used within it, so the
        # clock never runs backwards.
        self._ref = self.now()
        tick = time.perf_counter()
        self.probes.append(time_probe())
        self._scale = PROBE_REFERENCE_S / statistics.median(
            self.probes[-PROBE_WINDOW:]
        )
        self._io_wall = 0.0
        self._io_calls = 0
        self._mark = time.perf_counter()
        self.probe_wall_s += self._mark - tick
        self._probing = False

    def now(self) -> float:
        while True:
            # A probe can run between any two steps of this reading;
            # then the fields are a mix of before and after, so read again.
            generation = self._generation
            cpu_wall = time.perf_counter() - self._mark - self._io_wall
            value = (self._ref + cpu_wall * self._scale
                     + self._io_calls * FSYNC_REFERENCE_S)
            if generation == self._generation:
                return value

    def summary(self) -> dict:
        """The probes seen, for the detail line: the host's speed as
        reference seconds per wall second."""
        speeds = sorted(PROBE_REFERENCE_S / p for p in self.probes)
        return {
            "fsyncs": self.fsyncs,
            "fsync_wall_s": self.fsync_wall_s,
            "probes": len(speeds),
            "probe_wall_s": self.probe_wall_s,
            "speed_min": speeds[0],
            "speed_median": statistics.median(speeds),
            "speed_max": speeds[-1],
        }
