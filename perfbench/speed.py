"""How fast the host runs Python right now, measured next to every case.

On a shared host the same code can take nearly twice as long from one
second to the next (the CPU flips between a fast and a slow state), which
would bury any change to the program.  So the benchmark runs a small,
fixed exact-arithmetic kernel before and after every case, and every
`TICK_S` seconds of CPU time during a case (from a SIGPROF handler, in
the benchmark's own thread; the time the handler takes is taken out of
the case's time).  A case's time is then reported at a fixed reference
speed: time x REFERENCE_S / k_case, where k_case is the kernel's mean
time while the case ran, i.e. the time in kernel units times
REFERENCE_S, the kernel's time in the fast state of a 2-core x86 host.
A reference taken from the run itself (say its fastest kernel times)
would move with runs that never reach the fast state.  run.py prints the
unscaled times on stderr.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

TICK_S = 0.05
REFERENCE_S = 0.0008


def kernel():
    """Fixed work shaped like the library's inner loops: Fraction row
    operations and dict accumulation over exponent-like tuple keys."""
    row = [Fraction(i + 1, i + 2) for i in range(24)]
    for k in range(8):
        row = [a - Fraction(k + 1, 7) * b for a, b in zip(row, row[1:] + row[:1])]
    terms = {}
    for i in range(400):
        key = (i % 17, i % 5)
        terms[key] = terms.get(key, 0) + i
    return row, terms


class Speed:
    def __init__(self):
        self.samples: list[float] = []
        self._ticks: list[float] = []
        self._spent = 0.0

    def probe(self) -> float:
        start = time.perf_counter()
        kernel()
        k = time.perf_counter() - start
        self.samples.append(k)
        return k

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._ticks.append(self.probe())
        self._spent += time.perf_counter() - start

    def start(self) -> None:
        self._ticks, self._spent = [], 0.0
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> tuple[float, list[float]]:
        """(seconds the ticks took, kernel times seen during the case)."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        return self._spent, self._ticks

    @staticmethod
    def scaled(seconds: float, k: float) -> float:
        return seconds * REFERENCE_S / k
