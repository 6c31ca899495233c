"""Host-clock hook of the simulated machine (``repro.perf``).

The host clock is measured from outside by ``perfbench/``; the only thing
left in the tree is :mod:`repro.perf.instrument`, the switch that lets
:meth:`Machine.commit <repro.simmpi.machine.Machine.commit>` attribute host
nanoseconds to simulated phases.  See ``docs/performance.md``.
"""

from repro.perf.instrument import wall_anchor, wall_phases, wall_phases_enabled

__all__ = ["wall_anchor", "wall_phases", "wall_phases_enabled"]
