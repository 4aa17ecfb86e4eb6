"""How fast the machine runs Python while a pass runs, and how long it
keeps the pass off its CPU.

On a shared host a core runs Python up to about 1.7x slower in phases of
tens of milliseconds to seconds (another tenant on the same physical
core), its speed drifts over minutes, and the host now and then runs
another guest on this machine's virtual CPU (steal).  A pass's raw time
then says as much about the machine as about the program.

``Probe`` samples the machine's speed during the pass: an interval timer
interrupts the pass every ``PERIOD_S`` of wall time and runs ``chunk``, a
fixed piece of pure-Python work, timing it in CPU time.  A sample's speed
is ``NOMINAL_S / chunk time``.  Over any interval of the pass, the mean
speed of its samples is the share of nominal speed the interval ran at.
``OffCPU`` counts the interval's steal and run-queue wait.  The interval's
time, less the probes' own cost and (for wall time) less the off-CPU
time, multiplied by the mean speed, is the time the interval would have
taken at nominal speed on a machine of its own.  ``bench/run.py`` reports
these scaled times.

``chunk`` mixes what liesuper spends its time on: exact rational
arithmetic, dicts keyed by exponent tuples, and float loops.  It uses the
standard library only and never calls liesuper, so no change to the
library can move it.  The probes cost about 2-3 % of a pass.
"""

from __future__ import annotations

import ctypes
import os
import signal
from fractions import Fraction
from time import perf_counter, process_time, thread_time

NOMINAL_S = 75e-6
"""About the fastest ``chunk`` time seen on the machine the benchmark was
defined on (2-core shared VM, Python 3.11): scaled times read as seconds
at about that machine's unloaded speed."""

PERIOD_S = 0.01


def chunk() -> float:
    terms: dict[tuple[int, int], Fraction] = {}
    acc = Fraction(0)
    for i in range(12):
        q = Fraction(i % 7 + 1, i % 11 + 1)
        acc += q
        key = (i % 13, i % 17)
        terms[key] = terms.get(key, 0) + q
    x = 0.0
    for i in range(300):
        x = x * 0.999 + (i % 5) * 1e-3
    return x + len(terms)


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


class OffCPU:
    """Time the machine kept this process off its CPU: steal (the host ran
    another guest on the virtual CPU this process runs on) and run-queue
    wait (another process of this machine held the CPU).

    ``sample`` adds the time since the previous sample: the larger of the
    steal of the CPU the process is on now and the thread's run-queue
    wait, since steal accrues to a CPU also while the process waits in its
    run queue.  It is called every ``PERIOD_S``, so the process seldom
    moves to another CPU between samples.  Where ``/proc`` is missing this
    counts nothing."""

    def __init__(self):
        self.tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
        try:
            self._getcpu = ctypes.CDLL(None, use_errno=True).sched_getcpu
            self._getcpu.argtypes = []
            self._getcpu.restype = ctypes.c_int
        except (OSError, AttributeError):
            self._getcpu = None
        self.total = 0.0
        self._steal = self._read_steal()
        self._delay = self._read_delay()

    @staticmethod
    def _read_steal() -> list[int] | None:
        stat = _read("/proc/stat")
        if stat is None:
            return None
        return [int(line.split()[8]) for line in stat.splitlines()[1:] if line[:3] == "cpu"]

    @staticmethod
    def _read_delay() -> float:
        sched = _read("/proc/thread-self/schedstat")
        return int(sched.split()[1]) * 1e-9 if sched is not None else 0.0

    def sample(self) -> float:
        steal, delay = self._read_steal(), self._read_delay()
        stolen = 0.0
        cpu = self._getcpu() if self._getcpu is not None else -1
        if steal is not None and self._steal is not None and 0 <= cpu < len(steal):
            stolen = (steal[cpu] - self._steal[cpu]) * self.tick_s
        self.total += max(stolen, delay - self._delay)
        self._steal, self._delay = steal, delay
        return self.total


class Probe:
    """Speed samples taken every ``PERIOD_S`` between ``start`` and
    ``stop``; ``mark`` and ``scaled`` turn them into scaled interval
    times."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0
        self.off_cpu = OffCPU()
        self._busy = False

    def _sample(self, signum, frame) -> None:
        # a signal that arrives during a sample or a mark is skipped
        if self._busy:
            return
        self._busy = True
        try:
            self._take_sample()
        finally:
            self._busy = False

    def _take_sample(self) -> None:
        # The first chunk brings the probe's code and data back into the
        # caches the pass evicted; the second is the one timed.  It is
        # timed in CPU time, which a steal or a preemption does not add to:
        # those are counted by ``OffCPU``.  The probe's own cost is its CPU
        # time: a preemption during the probe (the timer that sends the
        # signal is also when the scheduler switches) is off-CPU time.
        c0 = thread_time()
        chunk()
        c1 = thread_time()
        chunk()
        c2 = thread_time()
        self.speeds.append(NOMINAL_S / max(c2 - c1, 1e-9))
        self.off_cpu.sample()
        self.spent += thread_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, float, int, float]:
        self._busy = True
        try:
            return perf_counter(), process_time(), self.off_cpu.sample(), len(self.speeds), self.spent
        finally:
            self._busy = False

    def scaled(self, begin, end) -> tuple[float, float, float, float]:
        """Wall and CPU time from mark ``begin`` to mark ``end``, with the
        probes and (from wall time) the off-CPU time taken out, scaled to
        nominal speed; the scale used; and the off-CPU seconds."""
        w0, c0, o0, n0, p0 = begin
        w1, c1, o1, n1, p1 = end
        speeds = self.speeds[n0:n1] or self.speeds[-1:] or [1.0]
        scale = sum(speeds) / len(speeds)
        wall = (w1 - w0) - (p1 - p0) - (o1 - o0)
        cpu = (c1 - c0) - (p1 - p0)
        return wall * scale, cpu * scale, scale, o1 - o0
