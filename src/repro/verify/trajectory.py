"""Checked trajectories: build, fingerprint and resume one audited run.

Every bitwise harness of this package — the A/B/B+move differential sweep
(:mod:`repro.verify.differential`), the DST chaos sweep and its checkpoint
resume sweep (:mod:`repro.verify.dst`) and the restart-equivalence kit
(:mod:`repro.ckpt.equivalence`) — runs its trajectories through this
module, which owns the four decisions they share:

* **How a checked run is built** (:func:`build_run`).  The backend and the
  collective-algorithm spec go through
  :class:`~repro.md.simulation.SimulationConfig`.  An optional span
  recorder is attached *before* the :class:`~repro.md.simulation.Simulation`
  is built and the auditor *after* it: the ledgers and the NDJSON bytes
  depend on that order.  The workload is the homogeneous silica melt or
  the two-cluster system with dynamic load balancing at an aggressive
  trigger.
* **How a run is resumed** (:meth:`CheckedRun.resume`,
  :func:`restore_run`).  Capture a checkpoint, optionally round-trip it
  through an NDJSON file in a directory, destroy the donor, then restore
  onto a fresh machine with the recorder and the auditor attached *before*
  :func:`~repro.ckpt.restore.restore_simulation` (which overwrites their
  state from the checkpoint), under the donor's perturbation.
* **What a run's fingerprint is** (:class:`Fingerprint`, :func:`play`).
  The :func:`~repro.verify.invariants.state_fingerprint` at the start
  point and after every step, plus the final
  :func:`~repro.verify.dst.ledger_fingerprint`.
* **How chaos seed k maps to a perturbation**:
  :meth:`Perturbation.sample(k) <repro.simmpi.chaos.Perturbation.sample>`
  for every listed seed, including 0 (the null perturbation); ``None``
  is the unperturbed reference schedule.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional

from repro.ckpt import (
    Checkpoint,
    capture_checkpoint,
    load_checkpoint,
    restore_simulation,
    write_checkpoint,
)
from repro.md.distributions import clustered_system
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.obs import ObsRecorder, enable_observability
from repro.simmpi.chaos import Perturbation
from repro.simmpi.machine import Machine
from repro.verify.audit import CommAuditor, enable_auditing
from repro.verify.invariants import InvariantChecker, state_fingerprint

__all__ = [
    "WORKLOADS",
    "CheckedRun",
    "Fingerprint",
    "build_run",
    "play",
    "restore_run",
]

#: ``"homogeneous"`` is the silica-melt analogue; ``"clustered"`` is the
#: two-cluster system under dynamic load balancing (the balance decision
#: reads only nominal rank work, so rebalances fire at the same steps under
#: every perturbation)
WORKLOADS = ("homogeneous", "clustered")

_CLUSTERED_BALANCE = dict(
    load_balance="dynamic",
    balance_trigger=1.02,
    balance_rearm=1.01,
    capacity_factor=6.0,
)


def _perturbation(chaos_seed: Optional[int]) -> Optional[Perturbation]:
    return None if chaos_seed is None else Perturbation.sample(chaos_seed)


@dataclasses.dataclass
class Fingerprint:
    """Per-step state fingerprints of one run plus its final ledger."""

    steps: List[Dict[str, str]]
    ledger: str


@dataclasses.dataclass
class CheckedRun:
    """A simulation, its machine's auditor and span recorder, and an
    invariant checker bound to it."""

    sim: Simulation
    auditor: Optional[CommAuditor]
    recorder: Optional[ObsRecorder] = None
    #: the run's perturbation is ``Perturbation.sample(chaos_seed)``
    chaos_seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.checker = InvariantChecker(self.sim)

    @property
    def machine(self) -> Machine:
        return self.sim.machine

    def resume(self, ckpt_dir: Optional[str] = None) -> None:
        """Kill this run and continue it, in place, from its checkpoint.

        With ``ckpt_dir`` the checkpoint goes through
        ``{solver}-{method}-kill{step}.ckpt.ndjson`` in that directory.
        """
        sim = self.sim
        ckpt = capture_checkpoint(sim)
        if ckpt_dir is not None:
            os.makedirs(ckpt_dir, exist_ok=True)
            slug = sim.config.method.replace("+", "_")
            path = os.path.join(
                ckpt_dir, f"{sim.config.solver}-{slug}-kill{sim.step_index}.ckpt.ndjson"
            )
            write_checkpoint(ckpt, path)
            ckpt = load_checkpoint(path)
        sim.fcs.destroy()
        fresh = restore_run(
            ckpt, chaos_seed=self.chaos_seed, spans=self.recorder is not None
        )
        self.sim, self.auditor, self.recorder = fresh.sim, fresh.auditor, fresh.recorder
        self.checker = fresh.checker


def build_run(
    solver: str,
    method: str,
    nprocs: int,
    *,
    n_particles: int,
    seed: int = 0,
    workload: str = "homogeneous",
    placement: str = "random",
    chaos_seed: Optional[int] = None,
    backend: Optional[str] = None,
    algos: Optional[str] = None,
    solver_kwargs: Optional[dict] = None,
    spans: bool = False,
    audit: bool = True,
) -> CheckedRun:
    """A fresh, not yet initialized run of one seeded trajectory.

    ``seed`` seeds the system and the simulation; ``placement`` is the
    initial particle distribution over the ranks
    (``SimulationConfig.distribution``).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown distribution {workload!r}; pick from {WORKLOADS}")
    machine = Machine(nprocs)
    recorder = enable_observability(machine) if spans else None
    solver_kwargs = dict(solver_kwargs or {})
    balance: Dict = {}
    if workload == "clustered":
        system = clustered_system("two-cluster", n_particles, seed=seed)
        balance = _CLUSTERED_BALANCE
        if solver == "fmm":
            solver_kwargs["work_model"] = "density"
    else:
        system = silica_melt_system(n_particles, seed=seed)
    config = SimulationConfig(
        solver=solver,
        method=method,
        distribution=placement,
        seed=seed,
        track_energy=True,
        solver_kwargs=solver_kwargs,
        perturbation=_perturbation(chaos_seed),
        backend=backend,
        collective_algos=algos,
        **balance,
    )
    sim = Simulation(machine, system, config)
    auditor = enable_auditing(machine) if audit else None
    return CheckedRun(sim, auditor, recorder, chaos_seed)


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
    fingerprint of the same step, and the final ledger must match.
    ``kill_at=K`` resumes the run (:meth:`CheckedRun.resume`) right after
    the check of step ``K``.
    """
    from repro.verify.dst import ledger_fingerprint  # dst imports this module

    fingerprints: List[Dict[str, str]] = []
    try:
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
                f"(perturbation [{run.machine.trace.notes().get('perturbation', '?')}])"
            )
    finally:
        run.sim.fcs.destroy()
    return Fingerprint(fingerprints, ledger)
