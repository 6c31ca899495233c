"""Restart-equivalence test kit: run 2N ≡ run N + save + restore + run N.

For every (solver, method) cell, :func:`run_restart_equivalence`

1. runs an **uninterrupted** trajectory for ``2·steps`` steps on an audited
   machine and fingerprints its final state
   (:func:`~repro.verify.invariants.state_fingerprint`) and auditor
   ledgers (:func:`~repro.verify.dst.ledger_fingerprint`);
2. runs the **same** trajectory for ``steps`` steps, resumes it ("the job
   was killed", :meth:`repro.verify.trajectory.CheckedRun.resume`) and
   runs ``steps`` more;
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
import tempfile
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence

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

    ``via_file=True`` resumes through an NDJSON file in a temporary
    directory; the default resumes from the in-memory checkpoint.
    """
    from repro.verify.dst import ledger_fingerprint
    from repro.verify.invariants import state_fingerprint
    from repro.verify.trajectory import CellSpec, build_run

    spec = CellSpec(
        solver, method, nprocs, n_particles, seed=system_seed, solver_kwargs=solver_kwargs
    )

    # -- the uninterrupted run: 2N steps ------------------------------------
    straight = build_run(spec)
    try:
        straight.sim.run(2 * steps)
        expected = {
            "state": state_fingerprint(straight.sim),
            "ledger": ledger_fingerprint(straight.auditor),
        }
        straight_breakdown = step_breakdown_hex(straight.sim.records)
    finally:
        straight.sim.fcs.destroy()

    # -- the split run: N steps, kill, restore, N more ----------------------
    split = build_run(spec)
    try:
        split.sim.run(steps)
        with tempfile.TemporaryDirectory() if via_file else nullcontext() as tmp:
            split.resume(tmp)
        split.sim.run(steps)
        split.checker.expected_restart = expected
        results = split.checker.run(["ckpt-restart-equivalence"])
        problems = [f"{r.name}: {r.detail}" for r in results if r.failed]
        breakdown = step_breakdown_hex(split.sim.records)
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
        split.sim.fcs.destroy()

    return EquivalenceCell(
        solver=solver,
        method=method,
        steps=steps,
        nprocs=nprocs,
        ok=not problems,
        detail="; ".join(problems) if problems else "ok",
        state_fingerprint=expected["state"],
        ledger_fingerprint=expected["ledger"],
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
