"""Host-speed normalisation of measured times.

The 2-CPU host this benchmark was tuned on switches between a fast and a
slow state (a factor of up to 2) that lasts tens of seconds, so a 20-second
run often sees only one of them: over ten pruned-n5 runs the fastest raw
pass spread 0.38 of its median between runs.  A fixed reference kernel timed
right before and after each measured interval shows the same slowdown, and
each interval is rescaled by it:

    normalised = measured * REF_NOMINAL_S / mean(reference before, after)

Over another ten pruned-n5 runs the median normalised pass spread 0.036.
The reference is part of the benchmark, not of implalg, so no change to the
program moves it.  REF_NOMINAL_S only fixes the unit: normalised seconds are
the seconds the interval would take at a host speed where one reference run
takes REF_NOMINAL_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.030
_REF_SAMPLES = 5
# Small, and built without numpy.random, which implalg never imports: peak RSS is a metric.
_TABLES = (np.arange(2000 * 25) * 7919 % 5).reshape(2000, 5, 5)
_AXIS = np.arange(5)


def _reference_once() -> float:
    """About 30 ms of interpreter work and numpy fancy indexing, the two
    kinds of work implalg does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
    b = np.arange(_TABLES.shape[0])[:, None, None]
    for _ in range(30):
        _TABLES[b, _TABLES[b, _AXIS[None, :, None], _AXIS[None, None, :]], _AXIS[None, None, :]]
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median of a few runs of the reference kernel."""
    return statistics.median(_reference_once() for _ in range(_REF_SAMPLES))


def normalised(measured: list[float], refs: list[float]) -> list[float]:
    """Each ``measured[i]`` rescaled by the references taken just before
    (``refs[i]``) and just after (``refs[i + 1]``) it."""
    if len(refs) != len(measured) + 1:
        raise ValueError("need one reference before each interval and one after the last")
    return [m * REF_NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, m in enumerate(measured)]
