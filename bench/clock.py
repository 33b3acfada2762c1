"""Timing adjusted for the machine's current speed.

On a shared machine the same pure-Python work runs up to 40% slower for tens
of seconds at a time, and medians inside one run cannot remove a drift that
slow.  So every timed region is bracketed by a calibration: a fixed
pure-Python loop of golden-section searches, about as branchy and call-heavy
as the solver.  A region's adjusted time is its raw time scaled by
``NOMINAL_CALIBRATION_S`` over the mean of the calibrations on either side
of it, that is, the time it would have taken on a machine where the loop
takes exactly ``NOMINAL_CALIBRATION_S``.  The loop is the benchmark's own
code, so it is identical for every commit being compared.
"""

from __future__ import annotations

import time

NOMINAL_CALIBRATION_S = 0.005
_FRESH_S = 0.05  # a calibration older than this is retaken before timing
_SEGMENT_S = 0.5  # the longest a checkpointed region runs between calibrations


def calibration_seconds() -> float:
    """Seconds one run of the calibration loop takes right now."""
    t0 = time.perf_counter()

    def f(b: float, s: float) -> float:
        return 2.0 * b / (s + b) - 0.3 * b

    acc = 0.0
    for k in range(300):
        s = 1.0 + k * 1e-3
        lo, hi = 0.0, 5.0
        for _ in range(40):
            m1 = lo + 0.381966 * (hi - lo)
            m2 = lo + 0.618034 * (hi - lo)
            if f(m1, s) >= f(m2, s):
                hi = m2
            else:
                lo = m1
        acc += lo
    return time.perf_counter() - t0


class Clock:
    """Times regions and adjusts them by the calibrations around them.

    A long region can be cut into segments with :meth:`checkpoint`, called at
    points where a few milliseconds of calibration do not disturb the work;
    each segment is then adjusted by the calibrations on its own two sides,
    and the calibration time itself is left out.
    """

    def __init__(self, segment_s: float = _SEGMENT_S) -> None:
        self.segment_s = segment_s
        self.adjustment()

    def adjustment(self) -> float:
        """The factor for raw seconds measured just before this call."""
        self._last = calibration_seconds()
        self._last_at = time.perf_counter()
        return NOMINAL_CALIBRATION_S / self._last

    def start(self) -> None:
        if time.perf_counter() - self._last_at > _FRESH_S:
            self.adjustment()
        self.segment_scales: list[float] = []
        self._raw = 0.0
        self._adjusted = 0.0
        self._t0 = time.perf_counter()

    def checkpoint(self) -> None:
        """End the current segment here if the last calibration is over ``segment_s`` old."""
        if time.perf_counter() - self._last_at >= self.segment_s:
            self._close_segment()
            self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(raw, adjusted) seconds since :meth:`start`, calibration time excluded."""
        self._close_segment()
        return self._raw, self._adjusted

    def _close_segment(self) -> None:
        raw = time.perf_counter() - self._t0
        before = self._last
        self.adjustment()
        scale = NOMINAL_CALIBRATION_S / (0.5 * (before + self._last))
        self.segment_scales.append(scale)
        self._raw += raw
        self._adjusted += raw * scale
