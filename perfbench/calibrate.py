"""Machine-speed readings that take the box's speed states out of host time.

The shared 2-vCPU box this benchmark was sized on runs all user code at one
of a few discrete speeds (1.0x, ~1.09x, ~1.22x slower), holding each for one
to five seconds and favouring different ones for minutes at a time.  A NumPy
kernel and a pure-Python kernel slow down by exactly the same factor, so the
states act like a clock-frequency change, and a run of identical work
wanders by 15-40 % with them.  The minimum over three passes cannot remove a
state that outlasts the run.

So the runner takes a reading of a fixed kernel before and after every
timed call and divides the call's host seconds by ``mean(before, after) /
NOMINAL_S``.  Host-time metrics are therefore *calibrated seconds*: the time
the call would have taken with the box in the state where the kernel takes
``NOMINAL_S``.  Measured on three-pass subsets of 12 passes, this halves the
run-to-run spread of ``wall_s`` (4.9 % -> 2.1-2.6 % on ``many_ranks``) and
brings two runs taken minutes apart from 2.4 % to 0.7 % of each other.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "reading"]

#: the kernel's time on the sizing box in its fastest state.  A constant, not
#: the run's own minimum: a 20 s run does not always visit the fastest state,
#: and on another box every host-time metric just scales by one factor.
NOMINAL_S = 0.0046

_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(50_000)
_ORDER = _RNG.permutation(50_000)


def _kernel() -> float:
    t0 = time.perf_counter()
    np.argsort(_VALUES, kind="stable")
    gathered = _VALUES[_ORDER]
    (gathered * np.cumsum(gathered)).sum()
    total, table = 0, {}
    for i in range(20_000):
        total += i & 3
        table[i & 1023] = total
    return time.perf_counter() - t0


def reading() -> float:
    """Seconds the kernel takes right now: the best of four back-to-back
    runs, so that the first one re-warms the caches the program just used."""
    return min(_kernel() for _ in range(4))
