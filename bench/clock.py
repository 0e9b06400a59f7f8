"""Operation timing corrected for the speed of a shared machine.

On the 2-vCPU virtual machine this benchmark was built on, the speed of a
fixed pure-Python loop drifts by up to 1.6x over tens of seconds, with no
steal time, as other tenants load the host. Raw wall times of the same pass
then spread by about a fifth between runs. The time of every operation is
therefore divided by the time of a fixed calibration loop, run right before
and right after it, and reported in seconds at a reference speed: the speed
at which the loop takes ``REFERENCE_S``. On the same machine, the
operation's time and the loop's time correlate at 0.94 across passes.
"""

from __future__ import annotations

import statistics
import time

CALIBRATION_LOOPS = 200_000
REFERENCE_S = 0.015   # the loop's time on that machine when it runs fast


def calibration_loop() -> float:
    """Wall time of a fixed, program-independent pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class Clock:
    """Times operations at the reference speed; keeps the calibration
    samples so that the machine's speed during a run can be reported."""

    def __init__(self):
        self.samples: list[float] = []

    def scale(self, seconds: float, before: float, after: float) -> float:
        self.samples += [before, after]
        return seconds * REFERENCE_S / ((before + after) / 2)

    def timed(self, fn):
        """``(seconds at the reference speed, result)`` of ``fn()``."""
        before = calibration_loop()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return self.scale(seconds, before, calibration_loop()), result

    def calibration_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)
