"""Differential oracle: Method A vs Method B vs Method B+move.

The strongest correctness argument this repo can make is *differential*: the
three redistribution methods of the paper are three transports for the same
physics, so the same seeded MD trajectory must produce the same particle
state (positions, velocities, potentials — compared id-ordered, independent
of layout) no matter which method moved the data.  On top of the state
agreement, the paper's Figures 7–8 claim is made executable: the data volume
method B redistributes per step never exceeds what method A redistributes,
because B's application layout tracks the solver layout (steady-state
self-sends are free) while A ships every particle back each step.

:func:`differential_check` runs one (solver, machine shape) cell;
:func:`sweep` runs the full grid.  Every trajectory is a
:func:`~repro.verify.trajectory.play` of an audited
:func:`~repro.verify.trajectory.build_run`: a
:class:`~repro.verify.audit.CommAuditor` attached and the full invariant
registry asserted after every step, so a differential run doubles as an
integration test of the other two verification layers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.md.simulation import REDISTRIBUTION_PHASES, StepRecord
from repro.verify.trajectory import CellSpec, build_run, play

__all__ = [
    "METHODS",
    "REDISTRIBUTION_PHASES",
    "DifferentialFailure",
    "DifferentialReport",
    "SWEEP_DEFAULTS",
    "TrajectoryResult",
    "compare_states",
    "differential_check",
    "redistribution_volume",
    "run_trajectory",
    "sweep",
]

#: the three redistribution methods under differential comparison
METHODS = ("A", "B", "B+move")


class DifferentialFailure(AssertionError):
    """Two methods disagreed, or method B redistributed more than method A."""


@dataclasses.dataclass
class TrajectoryResult:
    """One seeded trajectory under one redistribution method."""

    solver: str
    method: str
    nprocs: int
    steps: int
    #: id-ordered global final state (``Simulation.gather_state``)
    state: Dict[str, np.ndarray]
    records: List[StepRecord]
    #: cumulative redistribution bytes over the timestepping loop (step >= 1;
    #: the initial layout adoption is a one-off, not steady-state cost)
    redistribution_bytes: int
    redistribution_messages: int
    #: invariant checks run (count of passed/failed/skipped over all steps)
    invariants_passed: int
    invariants_skipped: int


def redistribution_volume(records: Sequence[StepRecord]) -> Tuple[int, int]:
    """Cumulative (bytes, messages) of the redistribution phases, step >= 1."""
    nbytes = 0
    messages = 0
    for rec in records:
        if rec.step == 0:
            continue
        for phase in REDISTRIBUTION_PHASES:
            stats = rec.phases.get(phase)
            if stats is not None:
                nbytes += stats.bytes
                messages += stats.messages
    return nbytes, messages


def run_trajectory(
    solver: str,
    method: str,
    nprocs: int,
    *,
    steps: int = 3,
    n_particles: int = 48,
    seed: int = 0,
    distribution: str = "random",
    solver_kwargs: Optional[dict] = None,
    backend: Optional[str] = None,
) -> TrajectoryResult:
    """Play one seeded, audited MD trajectory and return its observable state.

    The system, seed, step count and dynamics are identical for every
    method; only the redistribution transport differs — which is exactly
    what the differential comparison isolates.  ``backend`` optionally
    hosts the payload data plane on an execution engine ("process" /
    "process:N"); observable state is backend-independent.
    """
    spec = CellSpec(
        solver, method, nprocs, n_particles, seed=seed,
        placement=distribution, solver_kwargs=solver_kwargs,
    )
    run = build_run(spec, backend=backend)
    play(run, steps)
    sim, history = run.sim, run.checker.history
    nbytes, messages = redistribution_volume(sim.records)
    return TrajectoryResult(
        solver=solver,
        method=method,
        nprocs=nprocs,
        steps=steps,
        state=sim.gather_state(),
        records=sim.records,
        redistribution_bytes=nbytes,
        redistribution_messages=messages,
        invariants_passed=sum(1 for r in history if r.status == "passed"),
        invariants_skipped=sum(1 for r in history if r.status == "skipped"),
    )


def compare_states(
    reference: Dict[str, np.ndarray],
    other: Dict[str, np.ndarray],
    *,
    rtol: float = 1e-6,
    atol: float = 1e-9,
) -> Optional[str]:
    """Compare two id-ordered global states; returns a message or ``None``.

    Tolerances absorb the floating-point non-associativity of the solvers:
    the methods evaluate mathematically identical sums in layout-dependent
    orders, so agreement is to rounding, not bit-exact.
    """
    if not np.array_equal(reference["ids"], other["ids"]):
        return "particle id sets differ (lost or duplicated particles)"
    for key in ("pos", "vel", "q", "pot"):
        a, b = reference[key], other[key]
        if a.shape != b.shape:
            return f"{key}: shape {b.shape} vs reference {a.shape}"
        if not np.allclose(a, b, rtol=rtol, atol=atol):
            err = float(np.max(np.abs(a - b)))
            scale = float(np.max(np.abs(a))) or 1.0
            return (
                f"{key}: max abs deviation {err:.3e} "
                f"(relative {err / scale:.3e}) exceeds rtol={rtol:g}/atol={atol:g}"
            )
    return None


@dataclasses.dataclass
class DifferentialReport:
    """Outcome of one (solver, machine shape) differential cell."""

    solver: str
    nprocs: int
    steps: int
    trajectories: Dict[str, TrajectoryResult]
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def volumes(self) -> Dict[str, int]:
        return {
            m: t.redistribution_bytes for m, t in self.trajectories.items()
        }

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.failures)})"
        vols = ", ".join(f"{m}={v}B" for m, v in self.volumes.items())
        return (
            f"[{status}] solver={self.solver} nprocs={self.nprocs} "
            f"steps={self.steps} redistribution: {vols}"
        )


def differential_check(
    solver: str,
    nprocs: int,
    *,
    steps: int = 3,
    n_particles: int = 48,
    seed: int = 0,
    distribution: str = "random",
    rtol: float = 1e-6,
    atol: float = 1e-9,
    methods: Sequence[str] = METHODS,
    raise_on_failure: bool = False,
    solver_kwargs: Optional[dict] = None,
    backend: Optional[str] = None,
) -> DifferentialReport:
    """Run the same seeded trajectory under every method and cross-check.

    Checks performed:

    1. every non-reference method's final state matches method A's to
       tolerance (positions, velocities, charges, potentials, id sets),
    2. method B (and B+move) never redistributes more bytes than method A
       over the timestepping loop — the executable Figures 7–8 claim,
    3. (implicitly) every trajectory runs under a strict
       :class:`~repro.verify.audit.CommAuditor` with the full invariant
       registry asserted after each step.
    """
    trajectories: Dict[str, TrajectoryResult] = {}
    for method in methods:
        trajectories[method] = run_trajectory(
            solver,
            method,
            nprocs,
            steps=steps,
            n_particles=n_particles,
            seed=seed,
            distribution=distribution,
            solver_kwargs=solver_kwargs,
            backend=backend,
        )

    failures: List[str] = []
    reference = trajectories.get("A")
    if reference is not None:
        for method, result in trajectories.items():
            if method == "A":
                continue
            mismatch = compare_states(
                reference.state, result.state, rtol=rtol, atol=atol
            )
            if mismatch is not None:
                failures.append(
                    f"method {method} vs A ({solver}, {nprocs} ranks): {mismatch}"
                )
        for method in ("B", "B+move"):
            result = trajectories.get(method)
            if result is None:
                continue
            if result.redistribution_bytes > reference.redistribution_bytes:
                failures.append(
                    f"method {method} redistributed {result.redistribution_bytes} B "
                    f"> method A's {reference.redistribution_bytes} B "
                    f"({solver}, {nprocs} ranks, {steps} steps)"
                )

    report = DifferentialReport(
        solver=solver,
        nprocs=nprocs,
        steps=steps,
        trajectories=trajectories,
        failures=failures,
    )
    if raise_on_failure and failures:
        raise DifferentialFailure("\n".join(failures))
    return report


#: what a left-out argument means to :func:`sweep` and ``python -m repro.verify``
SWEEP_DEFAULTS = dict(
    solvers=("direct", "fmm", "p2nfft"), shapes=(4, 8), steps=3, particles=48, seed=0, rtol=1e-6
)


def sweep(
    solvers: Sequence[str] = SWEEP_DEFAULTS["solvers"],
    shapes: Sequence[int] = SWEEP_DEFAULTS["shapes"],
    *,
    steps: int = SWEEP_DEFAULTS["steps"],
    n_particles: int = SWEEP_DEFAULTS["particles"],
    seed: int = SWEEP_DEFAULTS["seed"],
    distribution: str = "random",
    rtol: float = SWEEP_DEFAULTS["rtol"],
    atol: float = 1e-9,
    backend: Optional[str] = None,
) -> List[DifferentialReport]:
    """Run :func:`differential_check` over the (solver, shape) grid."""
    reports = []
    for solver in solvers:
        for nprocs in shapes:
            reports.append(
                differential_check(
                    solver,
                    nprocs,
                    steps=steps,
                    n_particles=n_particles,
                    seed=seed,
                    distribution=distribution,
                    rtol=rtol,
                    atol=atol,
                    backend=backend,
                )
            )
    return reports
