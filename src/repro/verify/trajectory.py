"""Cell specs and checked trajectories: build, play, fingerprint, resume.

Every simulated run of this package is one :class:`CellSpec` built by
:func:`build_run`: the figure cells of :mod:`repro.bench.figures`
(through :func:`run_cells`), the A/B/B+move differential sweep
(:mod:`repro.verify.differential`) and the DST chaos sweep with its kill
cells and its checkpoint resume sweep (:mod:`repro.verify.dst`).  This
module owns the decisions they share:

* **How a run is built** (:func:`build_run`).  The spec fixes the system,
  machine profile, solver, method, placement and dynamics; the chaos seed,
  the backend and the collective-algorithm spec go through
  :class:`~repro.md.simulation.SimulationConfig`.  An optional span
  recorder is attached *before* the :class:`~repro.md.simulation.Simulation`
  is built and the auditor *after* it: the ledgers and the NDJSON bytes
  depend on that order.
* **How a figure cell is played** (:func:`run_cell`).  Unaudited: the
  initial run, then the spec's brownian drift schedule, returning the step
  records, the share of method-B steps that fell back
  (:func:`fallback_fraction`) and the final state fingerprint.
  :func:`run_cells` fans a list of cells out over an execution backend's
  workers.
* **How a run is resumed** (:meth:`CheckedRun.resume`,
  :func:`restore_run`).  Capture a checkpoint, optionally round-trip it
  through an NDJSON file in a directory, destroy the donor, then restore
  onto a fresh machine with the recorder and the auditor attached *before*
  :func:`~repro.ckpt.restore.restore_simulation` (which overwrites their
  state from the checkpoint), under the donor's perturbation.
* **How a checked run is played** (:func:`play`, the one loop for it).
  Its fingerprint (:class:`Fingerprint`) is the
  :func:`~repro.verify.invariants.state_fingerprint` at the start point
  and after every step, the final
  :func:`~repro.verify.dst.ledger_fingerprint` and the per-step phase-time
  breakdown (:func:`step_breakdown_hex`).  A run held to a reference (a
  chaos schedule, or a run killed and resumed from its checkpoint) must
  match the reference's fingerprint at every step and its ledger at the
  end; on an unperturbed or null-perturbed machine it must also match the
  reference's breakdown.  DST, the resume sweep and restart equivalence
  (the null-seed kill cell) are all this.
* **How chaos seed k maps to a perturbation**:
  :meth:`Perturbation.sample(k) <repro.simmpi.chaos.Perturbation.sample>`
  for every listed seed, including 0 (the null perturbation); ``None``
  is the unperturbed reference schedule.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ckpt import (
    Checkpoint,
    capture_checkpoint,
    load_checkpoint,
    restore_simulation,
    write_checkpoint,
)
from repro.md.simulation import Simulation, SimulationConfig, StepRecord
from repro.obs import ObsRecorder, enable_observability
from repro.simmpi import costmodel
from repro.simmpi.chaos import Perturbation
from repro.simmpi.machine import Machine
from repro.verify.audit import CommAuditor, enable_auditing
from repro.verify.invariants import InvariantChecker, state_fingerprint

__all__ = [
    "WORKLOADS",
    "CellResult",
    "CellSpec",
    "CheckedRun",
    "Fingerprint",
    "build_run",
    "fallback_fraction",
    "play",
    "restore_run",
    "run_cell",
    "run_cells",
    "step_breakdown_hex",
]


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One simulated trajectory: a figure cell or a checked run.

    ``seed`` seeds the system and the simulation.  ``system`` is
    ``"melt"`` (the silica-melt analogue) or one of
    :data:`~repro.md.distributions.CLUSTERED_KINDS`; the FMM runs a
    clustered system under its density work model.  ``balance`` turns on
    dynamic load balancing at an aggressive trigger.  ``placement`` is the
    initial particle distribution over the ranks
    (``SimulationConfig.distribution``) and ``profile`` names a
    :mod:`repro.simmpi.costmodel` profile (``"JUROPA"``, ``"JUQUEEN"``;
    ``None`` is the default switch machine).
    """

    solver: str
    method: str
    nprocs: int
    n: int
    seed: int = 0
    system: str = "melt"
    balance: bool = False
    placement: str = "random"
    profile: Optional[str] = None
    dt: float = 0.01
    solver_kwargs: Optional[dict] = None
    #: force dynamics with real solver compute and energy tracking;
    #: otherwise the solver skips its compute (``direct`` cannot) and the
    #: particles follow ``drift``
    physics: bool = True
    #: the brownian drift schedule ``((steps, width, divisor), ...)``: each
    #: entry runs ``steps`` steps of per-step displacement
    #: ``width * subdomain / divisor``, where ``subdomain`` is the box edge
    #: over the ranks per dimension (:func:`run_cell` plays it; empty is an
    #: init-only cell)
    drift: Tuple[Tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.physics and self.drift:
            raise ValueError("a drift schedule needs physics=False (brownian dynamics)")
        if not self.physics and self.solver == "direct":
            raise ValueError(
                "solver 'direct' has no skip-compute mode: physics=False needs "
                "ewald, fmm or p2nfft"
            )


@dataclasses.dataclass
class CellResult:
    """What :func:`run_cell` returns: the step records, the
    :func:`fallback_fraction` and the final state fingerprint."""

    records: List[StepRecord]
    fallback: float
    fingerprint: Dict[str, str]


#: the DST workload axis as :class:`CellSpec` fields: ``"homogeneous"`` is
#: the silica-melt analogue; ``"clustered"`` is the two-cluster system under
#: dynamic load balancing (the balance decision reads only nominal rank
#: work, so rebalances fire at the same steps under every perturbation)
WORKLOADS: Dict[str, Dict] = {
    "homogeneous": {},
    "clustered": dict(system="two-cluster", balance=True),
}

_DYNAMIC_BALANCE = dict(
    load_balance="dynamic",
    balance_trigger=1.02,
    balance_rearm=1.01,
    capacity_factor=6.0,
)


def _perturbation(chaos_seed: Optional[int]) -> Optional[Perturbation]:
    return None if chaos_seed is None else Perturbation.sample(chaos_seed)


@dataclasses.dataclass
class Fingerprint:
    """Per-step state fingerprints of one run, its final ledger and the
    :func:`step_breakdown_hex` of all its step records."""

    steps: List[Dict[str, str]]
    ledger: str
    breakdown: List[Dict[str, str]]


def step_breakdown_hex(records: Sequence[StepRecord]) -> List[Dict[str, str]]:
    """Per-step phase-time breakdown as ``float.hex`` bit patterns: two runs
    agree on it iff every phase of every step charged bitwise-identical
    virtual time."""
    return [
        {label: float(stats.time).hex() for label, stats in sorted(rec.phases.items())}
        for rec in records
    ]


@dataclasses.dataclass
class CheckedRun:
    """A simulation, its machine's auditor and span recorder, and an
    invariant checker bound to it."""

    sim: Simulation
    auditor: Optional[CommAuditor]
    recorder: Optional[ObsRecorder] = None
    #: the run's perturbation is ``Perturbation.sample(chaos_seed)``
    chaos_seed: Optional[int] = None
    #: its kill checkpoint files' name (``None``: ``{solver}-{method}``)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        self.checker = InvariantChecker(self.sim)

    @property
    def machine(self) -> Machine:
        return self.sim.machine

    def resume(self, ckpt_dir: Optional[str] = None) -> None:
        """Kill this run and continue it, in place, from its checkpoint.

        With ``ckpt_dir`` the checkpoint goes through
        ``{name}-kill{step}.ckpt.ndjson`` in that directory (a DST sweep
        names its runs after the cell and the chaos seed).
        """
        sim = self.sim
        ckpt = capture_checkpoint(sim)
        if ckpt_dir is not None:
            os.makedirs(ckpt_dir, exist_ok=True)
            name = self.name or f"{sim.config.solver}-{sim.config.method.replace('+', '_')}"
            path = os.path.join(ckpt_dir, f"{name}-kill{sim.step_index}.ckpt.ndjson")
            write_checkpoint(ckpt, path)
            ckpt = load_checkpoint(path)
        sim.fcs.destroy()
        fresh = restore_run(
            ckpt, chaos_seed=self.chaos_seed, spans=self.recorder is not None
        )
        self.sim, self.auditor, self.recorder = fresh.sim, fresh.auditor, fresh.recorder
        self.checker = fresh.checker


def build_run(
    spec: CellSpec,
    *,
    chaos_seed: Optional[int] = None,
    backend: Optional[str] = None,
    algos: Optional[str] = None,
    spans: bool = False,
    audit: bool = True,
) -> CheckedRun:
    """A fresh, not yet initialized run of ``spec`` (see the module doc)."""
    from repro.bench.harness import make_clustered_system, make_system  # bench imports this module

    profile = None if spec.profile is None else getattr(costmodel, spec.profile)
    machine = Machine(spec.nprocs, profile=profile)
    recorder = enable_observability(machine) if spans else None
    solver_kwargs = dict(spec.solver_kwargs or {})
    if spec.system == "melt":
        system = make_system(spec.n, spec.seed)
    else:
        system = make_clustered_system(spec.system, spec.n, spec.seed)
        if spec.solver == "fmm":
            solver_kwargs["work_model"] = "density"
    if not spec.physics:
        solver_kwargs.setdefault("compute", "skip")
    knobs = dict(_DYNAMIC_BALANCE) if spec.balance else {}
    if spec.drift:
        knobs.update(dynamics="brownian", brownian_step=_drift_widths(spec, system)[0][1])
    config = SimulationConfig(
        solver=spec.solver,
        method=spec.method,
        dt=spec.dt,
        distribution=spec.placement,
        seed=spec.seed,
        track_energy=spec.physics,
        solver_kwargs=solver_kwargs,
        perturbation=_perturbation(chaos_seed),
        backend=backend,
        collective_algos=algos,
        **knobs,
    )
    sim = Simulation(machine, system, config)
    auditor = enable_auditing(machine) if audit else None
    return CheckedRun(sim, auditor, recorder, chaos_seed)


def _drift_widths(spec: CellSpec, system) -> List[Tuple[int, float]]:
    """``spec.drift`` as ``(steps, brownian_step)`` pairs for ``system``."""
    subdomain = float(system.box.min()) / round(spec.nprocs ** (1.0 / 3.0))
    return [(steps, width * subdomain / divisor) for steps, width, divisor in spec.drift]


def fallback_fraction(records: Sequence[StepRecord]) -> float:
    """The share of method-B steps after the initial run whose solver kept
    the input layout (``changed`` False): B fell back to A's redistribution."""
    changed = [r.changed for r in records[1:] if r.method in ("B", "B+move")]
    return changed.count(False) / len(changed) if changed else 0.0


def run_cell(spec: CellSpec) -> CellResult:
    """Build ``spec`` unaudited, initialize it and play its drift schedule."""
    sim = build_run(spec, audit=False).sim
    try:
        sim.initialize()
        for steps, width in _drift_widths(spec, sim.system):
            sim.config.brownian_step = width
            for _ in range(steps):
                sim.step()
        return CellResult(sim.records, fallback_fraction(sim.records), state_fingerprint(sim))
    finally:
        sim.fcs.destroy()


def run_cells(specs: Sequence[CellSpec], backend=None) -> List[CellResult]:
    """:func:`run_cell` over ``specs``, in order.

    ``backend``: an optional :class:`~repro.backend.ExecutionBackend` (or
    spec string) whose workers run the cells; each cell is a whole
    simulation on its own machine, so the results are bitwise the serial
    ones.
    """
    from repro.backend import resolve_backend

    engine = resolve_backend(backend)
    if engine is not None and engine.workers:
        return engine.map_tasks("repro.verify.trajectory.run_cell", [(s,) for s in specs])
    return [run_cell(spec) for spec in specs]


def restore_run(
    ckpt: Checkpoint, *, chaos_seed: Optional[int] = None, spans: bool = False
) -> CheckedRun:
    """Restore ``ckpt`` onto a fresh audited machine (see the module doc)."""
    machine = Machine(ckpt.nprocs)
    recorder = enable_observability(machine) if spans else None
    auditor = enable_auditing(machine)
    sim = restore_simulation(
        ckpt, machine=machine, perturbation=_perturbation(chaos_seed)
    )
    return CheckedRun(sim, auditor, recorder, chaos_seed)


def play(
    run: CheckedRun,
    steps: int,
    *,
    reference: Optional[Fingerprint] = None,
    kill_at: Optional[int] = None,
    ckpt_dir: Optional[str] = None,
) -> Fingerprint:
    """Run ``steps`` checked steps from where ``run`` stands, then destroy it.

    The start point (after ``initialize()`` for a fresh run) and every step
    are checked.  Without ``reference`` the full invariant registry is
    asserted and the state fingerprint recorded; with one, only
    ``schedule-independence`` is asserted against the reference's
    fingerprint of the same step, and the final ledger must match.  On a
    machine without a perturbation, or with the null one, the per-step
    phase-time breakdown must match the reference's too: without chaos a
    run charges bitwise-identical virtual time.  ``kill_at=K`` resumes the
    run (:meth:`CheckedRun.resume`) right after the check of step ``K``.
    """
    from repro.verify.dst import ledger_fingerprint  # dst imports this module

    fingerprints: List[Dict[str, str]] = []
    try:
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps!r}")
        if kill_at is not None and not 0 <= kill_at <= steps:
            raise ValueError(
                f"kill_at must be within 0..steps ({steps}), got {kill_at!r}"
            )
        if not run.sim.records:
            run.sim.initialize()
        for k in range(steps + 1):
            if k:
                run.sim.step()
            if reference is None:
                fingerprints.append(state_fingerprint(run.sim))
                run.checker.assert_ok()
            else:
                run.checker.expected_fingerprint = reference.steps[k]
                run.checker.assert_ok(["schedule-independence"])
            if k == kill_at:
                run.resume(ckpt_dir)
        ledger = ledger_fingerprint(run.auditor)
        if reference is not None and ledger != reference.ledger:
            raise AssertionError(
                "auditor ledger fingerprint diverged from the reference schedule "
                f"(perturbation [{run.machine.trace.notes().get('perturbation', 'none')}])"
            )
        breakdown = step_breakdown_hex(run.sim.records)
        perturbation = run.machine.perturbation
        if reference is not None and (perturbation is None or perturbation.is_null):
            for step, (got, want) in enumerate(zip(breakdown, reference.breakdown)):
                if got != want:
                    phases = ", ".join(sorted({label for label, _ in got.items() ^ want.items()}))
                    raise AssertionError(
                        "per-step phase breakdown diverged from the reference schedule "
                        f"at step {step} (phases {phases})"
                    )
    finally:
        run.sim.fcs.destroy()
    return Fingerprint(fingerprints, ledger, breakdown)
