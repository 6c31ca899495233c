"""The four workloads: which simulations a run drives, and why.

A workload is a list of *cells*; a cell is one ``Simulation`` trajectory
(init + a step schedule).  All cells use the silica-melt system of
``repro.bench.harness.make_system(n, seed)``, ``compute="skip"`` and
brownian dynamics unless ``physics`` is set.  Step counts per cell are cut
from the issue's sizing (8–10 steps) to fit the driver's time cap; P, n and
the cell lists are not.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

__all__ = ["Cell", "Workload", "VARIANTS", "build_workloads", "WORKLOAD_NAMES"]

#: the four ways ``variants_p64`` runs one trajectory
VARIANTS = ("bare", "attached", "staged", "process")


@dataclasses.dataclass(frozen=True)
class Cell:
    """One simulated trajectory of a workload."""

    solver: str
    method: str
    n: int
    nprocs: int
    profile: str = "JUROPA"
    distribution: str = "random"
    #: ``((steps, per-step displacement in subdomain widths), ...)``; an
    #: empty schedule is an init-only (Fig. 6) cell
    schedule: Tuple[Tuple[int, float], ...] = ()
    #: force dynamics, real solver compute and energy tracking
    physics: bool = False
    #: one of :data:`VARIANTS`
    variant: str = "bare"

    @property
    def steps(self) -> int:
        return sum(s for s, _ in self.schedule)

    @property
    def restore_step(self) -> int:
        """The step an ``attached`` cell checkpoints at and is restored from."""
        return max(1, self.steps // 2)

    @property
    def name(self) -> str:
        parts = [self.solver, self.method, self.distribution, f"P{self.nprocs}"]
        if self.variant != "bare":
            parts.append(self.variant)
        return "/".join(parts)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: Tuple[Cell, ...]


#: problem sizes per scale; ``tiny`` exists for the benchmark's own tests
#: (same code paths, seconds instead of minutes) and is never reported
_SCALES: Dict[str, Dict[str, dict]] = {
    "full": {
        "payload_p16": dict(n=262144, P=16, steps=1),
        "many_ranks": dict(n=32768, P_fmm=128, P_p2nfft=512, drift=1, steady=1),
        "physics_force_p8": dict(n=8192, P=8, steps=2),
        "variants_p64": dict(n=16384, P=64, steps=2),
    },
    "tiny": {
        "payload_p16": dict(n=2048, P=4, steps=1),
        "many_ranks": dict(n=1024, P_fmm=8, P_p2nfft=12, drift=1, steady=1),
        "physics_force_p8": dict(n=256, P=2, steps=2),
        "variants_p64": dict(n=1024, P=4, steps=2),
    },
}

WHY = {
    "payload_p16": (
        "16k particles per rank on 16 ranks: NumPy payload work in sorting and "
        "core (key sort, split, ghosts, plan pack/unpack, restore) dominates; "
        "per-rank Python loops and kernels do not"
    ),
    "many_ranks": (
        "64-256 particles per rank on 128/512 ranks: step cost scales with P, "
        "not n; the only workload on merge_exchange_sort, neighborhood "
        "alltoallv, the torus profile and the drift-step fallback paths"
    ),
    "physics_force_p8": (
        "real force computation on 8 ranks: near-field pair kernels, FMM tree "
        "and P2NFFT mesh dominate and redistribution is negligible; the only "
        "workload with a solution of stated accuracy"
    ),
    "variants_p64": (
        "one P=64 trajectory run bare, with auditor+obs+null chaos+checkpoint/"
        "restore attached, with staged bruck collectives and on the process "
        "backend: a bare-path gain that taxes a variant shows here"
    ),
}

WORKLOAD_NAMES = tuple(WHY)


def build_workloads(scale: str = "full") -> Dict[str, Workload]:
    """The workload table at ``scale`` (``"full"`` or ``"tiny"``)."""
    sizes = _SCALES[scale]
    cells: Dict[str, List[Cell]] = {}

    s = sizes["payload_p16"]
    cells["payload_p16"] = [
        Cell(solver, method, s["n"], s["P"], schedule=((s["steps"], 0.005),))
        for solver in ("fmm", "p2nfft")
        for method in ("A", "B")
    ] + [
        # the two init-only Fig. 6 cells: everything starts on rank 0
        Cell(solver, "A", s["n"], s["P"], distribution="single")
        for solver in ("fmm", "p2nfft")
    ]

    s = sizes["many_ranks"]
    # drift steps (0.75 subdomain) take the fallback paths, steady steps
    # (0.02 subdomain) the limited-movement ones
    schedule = ((s["drift"], 0.75), (s["steady"], 0.02))
    cells["many_ranks"] = [
        Cell("fmm", method, s["n"], s["P_fmm"], distribution="grid", schedule=schedule)
        for method in ("A", "B+move")
    ] + [
        Cell(
            "p2nfft", method, s["n"], s["P_p2nfft"], profile="JUQUEEN",
            distribution="grid", schedule=schedule,
        )
        for method in ("A", "B", "B+move")
    ]

    s = sizes["physics_force_p8"]
    cells["physics_force_p8"] = [
        Cell(
            solver, "B", s["n"], s["P"], distribution="grid",
            schedule=((s["steps"], 0.0),), physics=True,
        )
        for solver in ("fmm", "p2nfft")
    ]

    s = sizes["variants_p64"]
    # variants of one solver run back to back so the variant/bare ratios
    # compare samples taken seconds apart
    cells["variants_p64"] = [
        Cell(
            solver, "B", s["n"], s["P"], schedule=((s["steps"], 0.005),),
            variant=variant,
        )
        for solver in ("fmm", "p2nfft")
        for variant in VARIANTS
    ]

    return {
        name: Workload(name, WHY[name], tuple(cells[name])) for name in WORKLOAD_NAMES
    }
