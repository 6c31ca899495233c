"""Rebuild a live simulation from a :class:`~repro.ckpt.checkpoint.Checkpoint`.

The restore contract is **continuation equivalence**: for any solver and
redistribution method,

    run 2N steps  ≡  run N + save + restore + run N

with byte-identical state fingerprints after every step, and identical step
records, traces and auditor ledgers.  The DST cell at chaos seed 0 with
``kill_at=N`` (``python -m repro.ckpt verify``) holds it:
:func:`~repro.verify.trajectory.play` against the uninterrupted run.  The
implementation reaches that in five ordered phases:

1. build a fresh :class:`~repro.md.simulation.Simulation` from the
   checkpointed global state (construction charges no machine cost);
2. overwrite the per-rank physics columns and all application bookkeeping
   (records, RNG, adaptive/method state, balance monitor) bit-for-bit;
3. re-run solver tuning — every solver's ``tune`` depends only on the
   global particle count, box and accuracy, so the rebuilt internal tables
   are identical to the donor's;
4. reinstate the solver handle's resort state: the last
   :class:`~repro.solvers.base.RunReport` and, if the donor held a compiled
   :class:`~repro.core.plan.ResortPlan`, a recompile keyed by the *same*
   resort indices — the continuation then cache-hits exactly where the
   uninterrupted run would;
5. **last**, restore the machine clocks, trace and (if attached) auditor
   ledgers from the checkpoint — wiping every cost phases 1-4 charged.

Because phase 5 overwrites the auditor, the caller must attach it (via
:func:`~repro.verify.audit.enable_auditing`) *before* calling
:func:`restore_simulation`; an auditor attached afterwards starts from
empty ledgers and will not reproduce the uninterrupted run's fingerprint.

An attached :class:`~repro.obs.spans.ObsRecorder` is cleared (its buffered
spans describe the reconstruction, not the run) and marked incomplete-from-
start — the exported header's ``complete`` then says that the trace's
history predates the recorder.
"""

from __future__ import annotations

import time

from repro.ckpt.checkpoint import COLUMNS, Checkpoint

__all__ = ["restore_simulation"]


def restore_simulation(
    ckpt: Checkpoint,
    *,
    machine=None,
    perturbation=None,
):
    """Rebuild a live, runnable simulation from ``ckpt``.

    Parameters
    ----------
    machine:
        target :class:`~repro.simmpi.machine.Machine`; a fresh one with the
        checkpoint's rank count is created when omitted.  Must be fresh
        (zero clocks) and have the checkpoint's rank count — restoring onto
        a *different* rank count goes through
        :func:`~repro.ckpt.resize.resize_checkpoint` first.
    perturbation:
        optional :class:`~repro.simmpi.chaos.Perturbation` for the resumed
        execution (the chaos-resume workflow).  Perturbations degrade only
        the machine's cost model, never the data plane, so a resumed
        trajectory's physics matches the uninterrupted run under *any*
        perturbation — the property the DST resume sweep checks.

    Returns the restored :class:`~repro.md.simulation.Simulation`.
    """
    from repro.core.balance import ImbalanceMonitor
    from repro.md.simulation import Simulation
    from repro.md.systems import ParticleSystem
    from repro.simmpi.machine import Machine

    t0_ns = time.perf_counter_ns()
    # ragged columns raise here: before a machine exists or is touched
    g = ckpt.gathered()
    if machine is None:
        machine = Machine(ckpt.nprocs)
    if machine.nprocs != ckpt.nprocs:
        raise ValueError(
            f"checkpoint has {ckpt.nprocs} ranks but the machine has "
            f"{machine.nprocs}; resize the checkpoint first "
            "(repro.ckpt.resize.resize_checkpoint)"
        )

    # -- phase 1: a fresh simulation from the checkpointed global state ------
    system = ParticleSystem(
        pos=g["pos"],
        q=g["q"],
        vel=g["vel"],
        box=ckpt.system["box"].copy(),
        offset=ckpt.system["offset"].copy(),
    )
    cfg = ckpt.make_config(perturbation=perturbation)
    sim = Simulation(machine, system, cfg)

    # -- phase 2: per-rank physics columns + application bookkeeping ---------
    sim.load_state(
        {
            **ckpt.sim,
            "records": ckpt.records,
            "columns": {name: ckpt.columns(name) for name in COLUMNS},
            "capacities": ckpt.capacities,
        }
    )
    if ckpt.monitor is not None:
        # (also when the config says off/unsupported but state exists)
        sim.balance_monitor = ImbalanceMonitor.from_state(ckpt.monitor)

    # -- phase 3: solver tuning (deterministic in n/box/accuracy) ------------
    sim.fcs.tune(sim.particles, cfg.accuracy)

    # -- phase 4: solver-handle resort state ---------------------------------
    # (the recompile of a cached plan charges the machine; wiped in phase 5)
    sim.fcs.load_state(ckpt.fcs)
    sim.fcs.solver.load_state(ckpt.solver)

    # -- phase 5: machine clocks / trace / auditor (wipes rebuild costs) -----
    machine.clocks[:] = ckpt.machine["clocks"]
    machine.trace.load_state(ckpt.machine["trace"])
    if machine.auditor is not None:
        auditor_state = ckpt.auditor
        if auditor_state is None:
            # the donor run was not audited: this auditor observed only the
            # reconstruction (whose charges were just wiped), so start it
            # fresh with its baseline at the restored trace — it then
            # accounts exactly the continuation
            auditor_state = {"trace_baseline": machine.trace.state_dict()["phases"]}
        machine.auditor.load_state(auditor_state)
    obs = machine.obs
    if obs is not None:
        obs.clear()
        # the recorder was not watching the checkpointed history: only a
        # restore onto a zero-cost prefix is complete-from-start
        obs.complete_from_start = (
            machine.trace.total_time() == 0.0
            and machine.trace.total_messages() == 0
        )
        obs.metrics.counter("ckpt.restores").inc()
        obs.metrics.counter("ckpt.restore_ns").inc(
            time.perf_counter_ns() - t0_ns
        )
        obs.mark("ckpt.restore", op="ckpt.restore", step=sim.step_index)
    return sim
