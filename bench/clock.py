"""Timing at a reference machine speed.

The benchmark shares a virtual machine whose speed drifts by up to a factor
of two within seconds, because other guests load the host. A fixed op timed
back to back then spreads by about half its median. So every timed block is
bracketed by :func:`probe`, a fixed ~1 ms mix of interpreter and numpy
work, and its wall time is rescaled to the speed at which the probe takes
:data:`REFERENCE_S`:

    scaled = wall * REFERENCE_S / mean(probe before, probe after)

A change to the package moves ``wall`` and leaves the probe alone, so the
scaled time still shows it; drift of the machine moves both and cancels.
Raw wall times are kept next to the scaled ones in every result file.
"""

from __future__ import annotations

import time

import numpy as np

perf = time.perf_counter

REFERENCE_S = 1.4e-3

_DATA = np.random.default_rng(0).random(1 << 16)  # 512 KiB, as a 16-criterion table
_MASKS = np.arange(1 << 16)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter loops, small-array numpy
    calls and passes over a 512 KiB table with masked gathers."""
    t0 = perf()
    s = 0
    for i in range(10000):
        s += i
    np.sort(_DATA[:8192])
    np.cumsum(_DATA[:32768])
    for _ in range(2):
        a = _DATA.copy()
        a -= _DATA[::-1]
        b = a[(_MASKS & 5) == 5]
        np.dot(b, b)
    return perf() - t0


def scale(wall: float, before: float, after: float) -> float:
    return wall * REFERENCE_S * 2.0 / (before + after)


class Stopwatch:
    """Accumulates the time spent inside ``with sw:`` blocks: ``raw`` wall
    time and ``total``, the same time at the reference speed."""

    __slots__ = ("total", "raw", "_t0", "_c0")

    def __init__(self):
        self.total = 0.0
        self.raw = 0.0

    def __enter__(self):
        self._c0 = probe()
        self._t0 = perf()

    def __exit__(self, *exc):
        wall = perf() - self._t0
        self.raw += wall
        self.total += scale(wall, self._c0, probe())
        return False


def timed(fn):
    """(result, scaled seconds, raw seconds) of ``fn()``, probed around."""
    before = probe()
    t0 = perf()
    result = fn()
    wall = perf() - t0
    return result, scale(wall, before, probe()), wall
