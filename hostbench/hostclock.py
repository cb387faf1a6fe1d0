"""Host seconds normalised to a reference host speed.

A shared host runs the same Python code at very different speeds from
one second to the next: on a shared 2-vCPU Intel Xeon host under
CPython 3.11, a fixed pure-Python loop took anywhere from 34 to 60 ms,
switching about every second (a busy sibling hardware thread, not steal time).  Raw wall
times then depend more on the neighbours than on the program.

While a timed region runs, a ``SIGALRM`` every ``PERIOD`` seconds runs a
fixed calibration kernel and records how long it took.  The region's
wall time, less the time spent calibrating, is scaled by the mean of
``REFERENCE / kernel time`` over the region's samples: the seconds the
region would have taken on a host where the kernel takes ``REFERENCE``.
Calibrating costs about 2% of the region.
"""

from __future__ import annotations

import signal
import statistics
import time

#: seconds between calibrations inside a timed region.
PERIOD = 0.01
#: the kernel's duration on the reference host, in seconds.  It is
#: close to the kernel's typical duration on a 2-vCPU Intel Xeon host
#: under CPython 3.11, so normalised seconds read close to wall seconds
#: there.
REFERENCE = 200e-6


def _kernel() -> None:
    """Fixed interpreter work: integer arithmetic and dict updates."""
    table: dict = {}
    for index in range(1500):
        key = index & 127
        table[key] = table.get(key, 0) + index


class HostClock:
    """Times regions and reports them at the reference host speed."""

    def __init__(self):
        self._durations: list[float] = []
        #: called with the length of each calibration, so another clock
        #: running across the region (the layer trace's) can leave the
        #: calibrations out.
        self.on_calibration = None

    def _calibrate(self, *_signal_args) -> None:
        started = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - started
        self._durations.append(elapsed)
        if self.on_calibration is not None:
            self.on_calibration(elapsed)

    def measure(self, function, *args) -> tuple:
        """``(function(*args), seconds, speed)``: ``seconds`` is the wall
        time the call took less the calibrations, ``speed`` the factor
        that converts it to reference seconds."""
        self._durations = []
        self._calibrate()  # one sample even for a region shorter than PERIOD
        previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        started = time.perf_counter()
        try:
            result = function(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - started
            signal.signal(signal.SIGALRM, previous)
        durations = self._durations
        seconds = elapsed - sum(durations[1:])
        speed = statistics.fmean(REFERENCE / duration
                                 for duration in durations)
        return result, seconds, speed

    def time(self, function, *args) -> tuple:
        """``(function(*args), reference seconds it took)``."""
        result, seconds, speed = self.measure(function, *args)
        return result, seconds * speed
