"""Reference seconds: wall times corrected for the speed the host gave the run.

On a shared virtual machine other tenants slow the process by up to 1.9
times, in spells of ten seconds to minutes.  Even the fastest of ten runs
of a 3 ms operation moved by that much between runs of the same code, so
no statistic of wall times alone held still.  So, after each set-up and
each timed operation, a fixed calibration kernel runs for a tenth of that
step's time (at least once), and the run's times are scaled by how fast
the kernel ran across the run:

    reference seconds = wall seconds * REFERENCE_S / mean kernel time

The kernel does the kind of work ``sklift`` spends its time on (a
schoolbook product of integer lists, fractions) and lives here, apart from
the program, so a change to the program cannot change it.  It runs with the
garbage collector off, so the size of the program's heap cannot slow it.
``REFERENCE_S`` is about the kernel's mean time on the 2-vCPU Xeon guest
the baseline was taken on, so there reference seconds read close to wall
seconds.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.004
SHARE = 0.1

_COEFFS = [(7 ** i) % 10 ** 30 + i for i in range(128)]


def kernel() -> Fraction:
    """A fixed amount of work, about 3 ms."""
    out = [0] * (2 * len(_COEFFS) - 1)
    for i, a in enumerate(_COEFFS):
        for j, b in enumerate(_COEFFS):
            out[i + j] += a * b
    total = Fraction(0)
    for x, y in zip(out, reversed(out)):
        total += Fraction(x % 97 + 1, y % 89 + 1)
    return total


class Speedometer:
    """The kernel's times over a run; ``after(seconds)`` follows each timed step."""

    def __init__(self):
        self.samples: list[float] = []

    def after(self, seconds: float) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            end = time.perf_counter() + SHARE * seconds
            first = True
            while first or time.perf_counter() < end:
                start = time.perf_counter()
                kernel()
                self.samples.append(time.perf_counter() - start)
                first = False
        finally:
            if enabled:
                gc.enable()

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def scale(self) -> float:
        """Multiply a wall time of this run by this to get reference seconds."""
        return REFERENCE_S / self.mean()
