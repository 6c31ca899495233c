"""Restart-equivalence test kit: run 2N ≡ run N + save + restore + run N.

For every (solver, method) cell, :func:`run_restart_equivalence`

1. runs an **uninterrupted** trajectory for ``2·steps`` steps on an audited
   machine and fingerprints its final state
   (:func:`~repro.verify.invariants.state_fingerprint`) and auditor
   ledgers (:func:`~repro.verify.dst.ledger_fingerprint`);
2. runs the **same** trajectory for ``steps`` steps on a fresh machine,
   captures a checkpoint (optionally through a save→load file round-trip),
   destroys the simulation ("the job was killed"), restores onto a third
   fresh audited machine and runs ``steps`` more;
3. arms the ``ckpt-restart-equivalence`` invariant with the uninterrupted
   fingerprints and asserts it on the restored simulation.

Byte-identity of both fingerprint sets is the whole checkpointing
contract; any divergence (a forgotten RNG stream, a re-tuned table that
depends on layout, a charge not wiped by the clock restore) fails here with
the diverging components named.

:func:`run_equivalence_suite` sweeps the full 4-solver × 3-method matrix —
the programmatic backbone of the ``python -m repro.ckpt verify`` CLI, which
the CI ``verify`` job runs.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ckpt.checkpoint import (
    capture_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.ckpt.restore import restore_simulation

__all__ = [
    "EQUIVALENCE_METHODS",
    "EQUIVALENCE_SOLVERS",
    "EquivalenceCell",
    "run_equivalence_suite",
    "run_restart_equivalence",
    "step_breakdown_hex",
]

EQUIVALENCE_SOLVERS = ("direct", "ewald", "fmm", "p2nfft")
EQUIVALENCE_METHODS = ("A", "B", "B+move")


def step_breakdown_hex(records) -> List[Dict[str, str]]:
    """Per-step phase-time breakdown as ``float.hex`` bit patterns.

    The golden suite pins these: two runs agree on the breakdown iff every
    phase of every step charged bitwise-identical virtual time.
    """
    return [
        {label: float(stats.time).hex() for label, stats in sorted(rec.phases.items())}
        for rec in records
    ]


@dataclasses.dataclass
class EquivalenceCell:
    """Outcome of one (solver, method) restart-equivalence check."""

    solver: str
    method: str
    steps: int
    nprocs: int
    ok: bool
    detail: str
    #: component fingerprints of the uninterrupted run (what the restored
    #: run was held to)
    state_fingerprint: Dict[str, str]
    ledger_fingerprint: str
    #: per-step float-hex phase breakdown of the restored (split) run —
    #: asserted equal to the uninterrupted run's before this cell reports ok
    breakdown: List[Dict[str, str]]


def _build(solver: str, method: str, *, nprocs, n_particles, system_seed,
           solver_kwargs, track_energy=True):
    from repro.md.simulation import Simulation, SimulationConfig
    from repro.md.systems import silica_melt_system
    from repro.simmpi.machine import Machine
    from repro.verify.audit import enable_auditing

    machine = Machine(nprocs)
    system = silica_melt_system(n_particles, seed=system_seed)
    config = SimulationConfig(
        solver=solver,
        method=method,
        seed=system_seed,
        track_energy=track_energy,
        solver_kwargs=dict(solver_kwargs or {}),
    )
    sim = Simulation(machine, system, config)
    auditor = enable_auditing(machine)
    return sim, auditor


def run_restart_equivalence(
    solver: str,
    method: str,
    *,
    steps: int = 2,
    nprocs: int = 2,
    n_particles: int = 16,
    system_seed: int = 0,
    solver_kwargs: Optional[dict] = None,
    via_file: bool = False,
) -> EquivalenceCell:
    """Check run-2N ≡ run-N + save + restore + run-N for one cell.

    ``via_file=True`` routes the checkpoint through an NDJSON save→load
    round-trip in a temporary directory (exercising the serialization);
    the default hands the in-memory :class:`Checkpoint` straight to the
    restore.
    """
    from repro.simmpi.machine import Machine
    from repro.verify.audit import enable_auditing
    from repro.verify.dst import ledger_fingerprint
    from repro.verify.invariants import InvariantChecker, state_fingerprint

    # -- the uninterrupted run: 2N steps ------------------------------------
    sim_straight, auditor_straight = _build(
        solver, method, nprocs=nprocs, n_particles=n_particles,
        system_seed=system_seed, solver_kwargs=solver_kwargs,
    )
    try:
        sim_straight.run(2 * steps)
        straight_state = state_fingerprint(sim_straight)
        straight_ledger = ledger_fingerprint(auditor_straight)
        straight_breakdown = step_breakdown_hex(sim_straight.records)
    finally:
        sim_straight.fcs.destroy()

    # -- the split run: N steps, kill, restore, N more ----------------------
    sim_first, _auditor_first = _build(
        solver, method, nprocs=nprocs, n_particles=n_particles,
        system_seed=system_seed, solver_kwargs=solver_kwargs,
    )
    try:
        sim_first.run(steps)
        if via_file:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "equivalence.ckpt.ndjson")
                write_checkpoint(capture_checkpoint(sim_first), path)
                ckpt = load_checkpoint(path)
        else:
            ckpt = capture_checkpoint(sim_first)
    finally:
        sim_first.fcs.destroy()

    machine = Machine(nprocs)
    auditor = enable_auditing(machine)
    sim = restore_simulation(ckpt, machine=machine)
    try:
        sim.run(steps)
        checker = InvariantChecker(sim)
        checker.expected_restart = {
            "state": straight_state,
            "ledger": straight_ledger,
        }
        results = checker.run(["ckpt-restart-equivalence"])
        problems = [f"{r.name}: {r.detail}" for r in results if r.failed]
        breakdown = step_breakdown_hex(sim.records)
        if breakdown != straight_breakdown:
            first_bad = next(
                i
                for i, (a, b) in enumerate(zip(breakdown, straight_breakdown))
                if a != b
            )
            problems.append(
                "per-step phase breakdown diverged from the uninterrupted "
                f"run (first at step {first_bad})"
            )
    finally:
        sim.fcs.destroy()

    return EquivalenceCell(
        solver=solver,
        method=method,
        steps=steps,
        nprocs=nprocs,
        ok=not problems,
        detail="; ".join(problems) if problems else "ok",
        state_fingerprint=straight_state,
        ledger_fingerprint=straight_ledger,
        breakdown=breakdown,
    )


def run_equivalence_suite(
    solvers: Sequence[str] = EQUIVALENCE_SOLVERS,
    methods: Sequence[str] = EQUIVALENCE_METHODS,
    *,
    steps: int = 2,
    nprocs: int = 2,
    n_particles: int = 16,
    system_seed: int = 0,
    via_file: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> List[EquivalenceCell]:
    """Run :func:`run_restart_equivalence` over a (solver, method) grid."""
    say = progress if progress is not None else (lambda msg: None)
    cells: List[EquivalenceCell] = []
    for solver in solvers:
        for method in methods:
            cell = run_restart_equivalence(
                solver,
                method,
                steps=steps,
                nprocs=nprocs,
                n_particles=n_particles,
                system_seed=system_seed,
                via_file=via_file,
            )
            say(
                f"ckpt: {solver}/{method} restart-equivalence "
                f"{'ok' if cell.ok else 'FAILED — ' + cell.detail}"
            )
            cells.append(cell)
    return cells
