"""Host speed probe: a fixed piece of work timed next to every job.

The host this benchmark was tuned on changes speed by up to 1.7x, in phases
that last from seconds to tens of minutes, and a slow phase stretches the
calibration work nearly as much as it stretches a job. run.py therefore reports
times rescaled to a host on which one calibration takes CALIBRATION_REF_S:

    rescaled = measured * CALIBRATION_REF_S / calibration seconds nearby

The work mixes what a cubeforge job does: Python loops over tuples, lists,
dicts and sets with float math and sorting, and small numpy array work
(distance matrices, boolean masks, argsort, a matrix product). Its inputs
are fixed, so it is the same work on every run and every commit; it does not
touch cubeforge, so a change to the package does not change it.
"""
from __future__ import annotations

import math
import random
import statistics
import time

# Reference time of one calibration, near what it takes on the tuning host.
CALIBRATION_REF_S = 0.060
CALIBRATION_SHARE = 0.03

_RNG = random.Random(20240601)
_POINTS = [(_RNG.random(), _RNG.random()) for _ in range(120)]
_ARRAY = None


def _python_part():
    for _ in range(2):
        near = {}
        for i, (x, y) in enumerate(_POINTS):
            row = [math.hypot(x - u, y - v) for (u, v) in _POINTS]
            near[i] = sorted(range(len(row)), key=row.__getitem__)[:8]
        edges = set()
        for i, nb in near.items():
            for j in nb:
                edges.add((min(i, j), max(i, j)))


def _numpy_part():
    import numpy as np
    global _ARRAY
    if _ARRAY is None:
        _ARRAY = np.random.default_rng(7).random((200, 2))
    a = _ARRAY
    for _ in range(7):
        dm = np.sqrt(((a[:, None, :] - a[None, :, :]) ** 2).sum(-1))
        mask = dm < 0.3
        mask.sum(1)
        np.argsort(dm[:20], axis=1)
        (mask.astype(float) @ a).sum()


def calibration_seconds() -> float:
    """Seconds the fixed calibration work takes now: three times the median
    of three thirds, so one hiccup of the host does not count."""
    thirds = []
    for _ in range(3):
        t0 = time.perf_counter()
        _python_part()
        _numpy_part()
        thirds.append(time.perf_counter() - t0)
    return 3.0 * sorted(thirds)[1]


class Rescaler:
    """Brackets every measurement with a calibration before and after it,
    and gives the factor that rescales it to the reference host speed."""

    def __init__(self):
        calibration_seconds()   # first call pays numpy's lazy set-up
        self.last = calibration_seconds()
        self.calibrations = [self.last]

    def measure(self, fn):
        """(fn(), factor): multiply the seconds fn measured by factor.

        After a long measurement the host has had time to change state, so
        the calibration after it is the median of several, about
        CALIBRATION_SHARE of the time measured, and at least one."""
        before = self.last
        t0 = time.perf_counter()
        result = fn()
        count = round(CALIBRATION_SHARE * (time.perf_counter() - t0)
                      / CALIBRATION_REF_S)
        runs = [calibration_seconds() for _ in range(max(1, count))]
        self.calibrations.extend(runs)
        self.last = statistics.median(runs)
        return result, 2.0 * CALIBRATION_REF_S / (before + self.last)
