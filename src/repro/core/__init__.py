"""The paper's core contribution: the coupling-library interface and the two
particle data redistribution methods.

Public entry points
-------------------
:func:`~repro.core.handle.fcs_init` / :class:`~repro.core.handle.FCS`
    ScaFaCoS-like solver handle (``fcs_init``, ``fcs_set_common``,
    ``fcs_tune``, ``fcs_run``, ``fcs_resort``, ``fcs_destroy``).
:class:`~repro.core.plan.ResortPlan`
    the plan-based resort engine: a run's resort indices compiled once into
    a reusable schedule that moves any number of mixed-dtype data columns in
    one fused exchange (see :meth:`~repro.core.handle.FCS.resort_plan`).
:class:`~repro.core.particles.ParticleSet`
    the application's distributed particle data (positions, charges, and the
    per-rank capacity limits that gate method B).
:mod:`~repro.core.fine_grained`
    the fine-grained data redistribution operation [13,14]: every element is
    sent to an individually computed target process, with optional
    duplication (ghost particles).
:mod:`~repro.core.resort`
    64-bit resort indices (target rank << 32 | target position), their
    creation by permutation inversion, and their application to additional
    application data (velocities, accelerations).
:mod:`~repro.core.movement`
    maximum-movement bookkeeping and the heuristics of Sect. III-B.
"""

from repro.core.particles import ColumnBlock, ParticleSet
from repro.core.plan import ResortPlan, ResortPlanStats
from repro.core.resort import (
    RESORT_POS_BITS,
    pack_resort_index,
    unpack_resort_index,
)

__all__ = [
    "FCS",
    "fcs_init",
    "ColumnBlock",
    "ParticleSet",
    "ResortPlan",
    "ResortPlanStats",
    "RESORT_POS_BITS",
    "pack_resort_index",
    "unpack_resort_index",
]


def __getattr__(name: str):
    # the handle sits above the solvers, whose base class imports this
    # package's lower layers: importing it here would close that cycle
    if name in ("FCS", "fcs_init"):
        from repro.core import handle

        return getattr(handle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
