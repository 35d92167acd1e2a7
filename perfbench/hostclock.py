"""Host speed calibration: times reported on a reference host's clock.

The 2-core VMs this benchmark was built on change speed in phases: the same
code runs up to 1.7x slower for 1 to 30 seconds at a time, on each virtual
CPU independently, with no steal time reported (the process uses as much CPU
time as wall time).  A run of half a minute catches a different mix of
phases each time, so its raw wall times differ from run to run by more than
any regression worth catching.

A :class:`HostClock` times a small fixed *calibration unit* — interpreter
work plus small NumPy operations, the mix the program itself runs — on the
benchmark's own thread, interleaved with the measured work.  Each stretch of
measured work is scaled by ``REFERENCE_S`` over the calibration time around
it, so it reads in seconds of a host that runs the unit in ``REFERENCE_S``.
Measured beside ``solve_dp`` calls, the scaled times stayed within about 5%
while the raw ones moved by 30% with the host's phases.

The calibration unit is benchmark code, so a change to the program moves the
measured work and never the unit: a regression shows in full.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

#: Calibration unit wall time on the reference host: the 2-core VM the
#: benchmark was built on (Intel Xeon at 2.0 GHz nominal, Python 3.11,
#: NumPy 2.4) in its fast phase.
REFERENCE_S = 0.0006
#: Samples in the running median that smooths the calibration (odd): the
#: host's phases last a second or more, far longer than five samples.
SMOOTHING = 5


class HostClock:
    """Calibration samples taken on the measuring thread, in time order."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random(64)
        self._b = rng.random(64)
        self._table = {k: float(k) for k in range(256)}
        #: ``(start, end)`` ``perf_counter`` times of every calibration unit
        self.samples: List[Tuple[float, float]] = []
        # the first units of a process run slower (cold code paths, first
        # NumPy calls); they are not samples
        for _ in range(20):
            self._unit()

    def _unit(self) -> float:
        a, b, table = self._a, self._b, self._table
        total = 0.0
        for k in range(120):
            total += float(np.minimum(a, b + 0.01 * k).sum())
            total += sum([table[(k * 7 + j) & 255] for j in range(24)])
        return total

    def sample(self) -> float:
        """Run one calibration unit now; returns its wall time."""
        start = time.perf_counter()
        self._unit()
        end = time.perf_counter()
        self.samples.append((start, end))
        return end - start

    def timed(self, fn: Callable[[], object], interval_s: Optional[float] = None):
        """``fn()``'s result and its wall :class:`Timing`, calibrated just before and after.

        With ``interval_s``, a timer signal also takes a sample every
        ``interval_s`` seconds while ``fn`` runs, so a long call is scaled
        stretch by stretch.  The handler runs between bytecodes of the
        measuring thread; only use it where no timing of the program's own
        would include it.
        """
        self.sample()
        start = time.perf_counter()
        if interval_s is None:
            result = fn()
        else:
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
            try:
                result = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        end = time.perf_counter()
        self.sample()
        raw, factor = self.stretches(start, end)
        return result, Timing(float(raw.sum()), float((raw * factor).sum()))

    def stretches(self, start: float, end: float) -> Tuple[np.ndarray, np.ndarray]:
        """Raw durations and scale factors of ``[start, end]`` cut at the samples inside it.

        Stretch ``i`` runs from the end of sample ``i - 1`` (or ``start``) to
        the start of sample ``i`` (or ``end``), so calibration time is left
        out.  Its factor is ``REFERENCE_S`` over the mean of the samples on
        either side of it; at the edges, the nearest sample outside the
        interval stands in.  Each sample is first replaced by the median of
        the ``SMOOTHING`` samples centred on it, so one unit slowed by an
        interrupt cannot mis-scale the stretches beside it.
        """
        inside = [(s, e) for s, e in self.samples if start <= s and e <= end]
        edges = [start] + [x for pair in inside for x in pair] + [end]
        raw = np.diff(edges)[::2]
        units = [e - s for s, e in inside]
        before = [e - s for s, e in self.samples if e <= start][-1:]
        after = [e - s for s, e in self.samples if s >= end][:1]
        around = np.array((before or units[:1] or after) + units + (after or units[-1:] or before))
        if around.size == 0:
            return raw, np.ones_like(raw)
        half = SMOOTHING // 2
        padded = np.pad(around, half, mode="edge")
        around = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTHING), axis=1)
        return raw, REFERENCE_S / (0.5 * (around[:-1] + around[1:]))


@dataclass
class Timing:
    """One measured wall time, as read and scaled to the reference host."""

    raw: float
    scaled: float

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.raw + other.raw, self.scaled + other.scaled)

    @staticmethod
    def unscaled(seconds: float) -> "Timing":
        """A time measured without calibration (the traced passes)."""
        return Timing(seconds, seconds)
