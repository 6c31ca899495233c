"""Wall-phase attribution: the one host-clock hook inside the program.

The repository charges *modeled* (virtual-clock) time through the
:class:`~repro.simmpi.machine.Machine`; the *host* clock is measured from
outside, by ``perfbench/`` (see ``docs/performance.md``).  What cannot be
seen from outside is which simulated phase a stretch of host time belongs
to, so while a :func:`wall_phases` block is active every charge
(:meth:`Machine.commit <repro.simmpi.machine.Machine.commit>`) attributes
the host nanoseconds elapsed since the machine's previous charge point to
the charged phase label, via :meth:`Trace.record_wall
<repro.simmpi.tracing.Trace.record_wall>`.  It is a charge-point partition
of host time: the code that *produces* a charge owns the host time leading
up to it — exact for the single-machine benchmark runs, approximate when
several machines interleave.  Off by default; the modeled fields never
depend on it.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator

__all__ = ["wall_anchor", "wall_phases", "wall_phases_enabled"]

# read on the charge path, mutated only by wall_phases (single-threaded)
_WALL_PHASES = False


def wall_phases_enabled() -> bool:
    """Whether machines attribute host wall time to trace phases."""
    return _WALL_PHASES


@contextlib.contextmanager
def wall_phases() -> Iterator[None]:
    """Attribute host wall nanoseconds to trace phase labels.

    Machines constructed *or charged* inside the block attribute the host
    time between consecutive charge points to the later charge's phase; see
    the module docstring for the attribution semantics.
    """
    global _WALL_PHASES
    prev = _WALL_PHASES
    _WALL_PHASES = True
    try:
        yield
    finally:
        _WALL_PHASES = prev


def wall_anchor() -> int:
    """Host ``perf_counter_ns`` of a charge point."""
    return time.perf_counter_ns()
