"""Shared benchmark infrastructure: scales, phase aggregation, runners.

The paper's figures decompose each solver execution into *sort* (placing
particles into the solver's domain decomposition), *restore* (method A's
return to the original order/distribution), *resort* (method B's
redistribution of additional particle data, including the resort-index
creation) and *total*.  :func:`step_breakdown` maps the per-phase trace
deltas of a :class:`~repro.md.simulation.StepRecord` onto those labels.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.md.distributions import clustered_system
from repro.md.simulation import StepRecord
from repro.md.systems import ParticleSystem, silica_melt_system

__all__ = [
    "BenchScale",
    "PRESETS",
    "SORT_PHASES",
    "RESTORE_PHASES",
    "RESORT_PHASES",
    "SOLVER_PHASES",
    "step_breakdown",
    "make_system",
    "make_clustered_system",
]

#: phase labels counted as the solver's particle-placement redistribution
SORT_PHASES = ("sort",)
#: method A's restoration of the original order and distribution
RESTORE_PHASES = ("restore",)
#: the application's redistribution of additional particle data
#: (``fcs.resort`` plus the one-off plan compilation) — what Fig. 7 plots
#: as "Resort"; the solver-internal resort-index creation stays inside the
#: total (it is the "additional communication step" of Sect. IV-D)
RESORT_PHASES = ("resort", "resort_plan")
#: everything that belongs to one solver execution + redistribution (the
#: paper's "total runtime"; the application's integrator is excluded)
SOLVER_PHASES = (
    "keygen",
    "sort",
    "balance",
    "halo",
    "near",
    "far",
    "mesh",
    "fft",
    "gather",
    "restore",
    "resort_index",
    "resort",
    "resort_plan",
)


def step_breakdown(record: StepRecord) -> Dict[str, float]:
    """Map a step's phase deltas to the paper's sort/restore/resort/total.

    ``redist`` is the complete redistribution cost of the step (sort +
    restore + resort-index creation + resort), the quantity Fig. 8 plots.
    """
    out = {
        "sort": record.phase_time(*SORT_PHASES),
        "restore": record.phase_time(*RESTORE_PHASES),
        "resort": record.phase_time(*RESORT_PHASES),
        "total": record.phase_time(*SOLVER_PHASES),
    }
    out["redist"] = (
        out["sort"] + out["restore"] + out["resort"] + record.phase_time("resort_index")
    )
    return out


@dataclasses.dataclass(frozen=True)
class BenchScale:
    """Problem scale of a benchmark run.

    The paper's testbed (829 440 particles, 1000 time steps, up to 16384
    processes) is scaled down to tractable single-host sizes; the
    redistribution *fractions* per step are scale-free (constant density,
    movement measured in subdomain widths), so the figures' shapes are
    preserved.  ``steps`` applies to the time-series figures, ``nprocs``
    to the fixed-process-count figures.
    """

    name: str
    n: int
    nprocs: int
    steps_fig7: int
    steps_fig8: int
    steps_fig9: int
    fig9_fmm_procs: tuple
    fig9_p2nfft_procs: tuple
    fig9_n: int
    dt_fig8: float
    seed: int = 1


PRESETS: Dict[str, BenchScale] = {
    # fast smoke scale for pytest-benchmark runs
    "quick": BenchScale(
        name="quick",
        n=16_384,
        nprocs=64,
        steps_fig7=8,
        steps_fig8=60,
        steps_fig9=2,
        fig9_fmm_procs=(8, 16, 32, 64, 128),
        fig9_p2nfft_procs=(16, 64, 256, 1024),
        fig9_n=32_768,
        dt_fig8=0.08,
    ),
    # the default: half the paper's particle count at the paper's process
    # count (same particles-per-process regime)
    "default": BenchScale(
        name="default",
        n=414_720,
        nprocs=256,
        steps_fig7=8,
        steps_fig8=200,
        steps_fig9=3,
        fig9_fmm_procs=(8, 16, 32, 64, 128, 256, 512, 1024),
        fig9_p2nfft_procs=(16, 64, 256, 1024, 4096),
        fig9_n=414_720,
        dt_fig8=0.06,
    ),
    # the paper's exact scale (829 440 particles, 1000 steps, 16384 procs)
    "full": BenchScale(
        name="full",
        n=829_440,
        nprocs=256,
        steps_fig7=8,
        steps_fig8=1000,
        steps_fig9=3,
        fig9_fmm_procs=(8, 16, 32, 64, 128, 256, 512, 1024),
        fig9_p2nfft_procs=(16, 64, 256, 1024, 4096, 16384),
        fig9_n=829_440,
        dt_fig8=0.03,
    ),
}


_SYSTEM_CACHE: Dict[tuple, ParticleSystem] = {}


def make_system(n: int, seed: int = 1) -> ParticleSystem:
    """Cached melting-silica analogue system at the paper's density."""
    key = (n, seed)
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = silica_melt_system(n, seed=seed)
    return _SYSTEM_CACHE[key]


def make_clustered_system(kind: str, n: int, seed: int = 1) -> ParticleSystem:
    """Cached inhomogeneous system (Plummer / two-cluster / exponential slab)
    in the same box convention as :func:`make_system`."""
    key = (kind, n, seed)
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = clustered_system(kind, n, seed=seed)
    return _SYSTEM_CACHE[key]
