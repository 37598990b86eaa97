"""Wall times rescaled to a reference host speed.

The benchmark runs on a few cores of a shared machine whose speed moves by
up to 2x from one second to the next (another tenant on the sibling
hyperthread, say).  A pass timed on such a host measures the neighbours as
much as the program.  `SpeedProbe` samples the host's speed while the
program runs: a timer signal interrupts it every `INTERVAL_S` and times a
fixed pure-Python loop (`probe_loop`) in the same thread.  The loop's time
against `REF_S`, its time at the reference speed, tells how slow the host
was just then.

An operation's scaled time is its wall time minus the time spent in the
probe, times REF_S over the mean probe time during the operation.  It is
the operation's wall time at the reference speed: a program change that
saves work lowers it exactly as it lowers the wall time, while a slower
host raises the probe time and the wall time together.  On the 2-core
Xeon host the bounds were set on, a worker's mean probe time was 67-129 us
(median 102 us); REF_S sits near the fast end, so scaled times there read
at or somewhat below wall times.

The probe costs about 1.5 % of the run and, being a signal handler, only
ever runs between bytecodes of the main thread.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
REF_S = 80e-6


_TABLE = dict.fromkeys(range(64), 0)


def probe_loop() -> int:
    """The fixed work timed at each sample: dict reads and writes and
    small-integer arithmetic in the interpreter, as in khbraid's loops.  It
    allocates no object the garbage collector tracks, so a sample never
    pays for a collection of the program's heap."""
    d = _TABLE
    s = 0
    for i in range(400):
        k = i & 63
        d[k] = (d[k] + i) & 0xFFFF
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples the probe loop on a timer while it is started.

    Use `mark()` before an operation and `scaled(mark, wall)` after it.
    """

    def __init__(self, interval: float = INTERVAL_S, clock=time.perf_counter):
        self.interval, self.clock = interval, clock
        self.samples: list[float] = []  # probe loop seconds, in order
        self.spent = 0.0  # seconds spent inside the handler
        self._old = None

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = self.clock()
        probe_loop()
        t1 = self.clock()
        self.samples.append(t1 - t0)
        self.spent += self.clock() - t0

    def start(self) -> "SpeedProbe":
        self._sample()  # one sample before the first operation
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def scaled(self, mark: tuple[int, float], wall: float) -> float:
        """`wall` seconds measured since `mark`, at the reference speed.
        An operation too short to be sampled uses the last sample before it."""
        n, spent = mark
        during = self.samples[n:] or self.samples[n - 1:n]
        speed = REF_S / (sum(during) / len(during))
        return (wall - (self.spent - spent)) * speed
