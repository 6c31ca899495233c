"""Restart-equivalence test kit: run 2N ≡ run N + save + restore + run N.

For every (solver, method) cell, :func:`run_restart_equivalence` plays the
cell twice with :func:`repro.verify.trajectory.play`:

1. the **uninterrupted** run, ``2·steps`` checked steps, whose per-step
   state fingerprints (:func:`~repro.verify.invariants.state_fingerprint`)
   and final auditor ledger (:func:`~repro.verify.dst.ledger_fingerprint`)
   are the reference;
2. the **same** run killed after step ``steps`` and resumed from its
   checkpoint (``kill_at``, :meth:`repro.verify.trajectory.CheckedRun.resume`),
   held to the reference's state fingerprint at every step and to its
   ledger at the end.

On top of what :func:`play` checks, the kit compares the per-step
``float.hex`` phase-time breakdown of both runs (:func:`step_breakdown_hex`):
without chaos both runs charge bitwise-identical virtual time.  Any
divergence (a forgotten RNG stream, a re-tuned table that depends on layout,
a charge not wiped by the clock restore) fails the cell with the diverging
components and the step named.

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
    from repro.verify.trajectory import CellSpec, build_run, play

    spec = CellSpec(
        solver, method, nprocs, n_particles, seed=system_seed, solver_kwargs=solver_kwargs
    )
    straight = build_run(spec)
    reference = play(straight, 2 * steps)
    split = build_run(spec)
    try:
        with tempfile.TemporaryDirectory() if via_file else nullcontext() as tmp:
            play(split, 2 * steps, reference=reference, kill_at=steps, ckpt_dir=tmp)
    except AssertionError as exc:
        detail = str(exc)
    else:
        detail = "ok"
    breakdown = step_breakdown_hex(split.sim.records)
    expected = step_breakdown_hex(straight.sim.records)
    if detail == "ok" and breakdown != expected:
        first_bad = next(i for i, (a, b) in enumerate(zip(breakdown, expected)) if a != b)
        detail = (
            "per-step phase breakdown diverged from the uninterrupted "
            f"run (first at step {first_bad})"
        )

    return EquivalenceCell(
        solver=solver,
        method=method,
        steps=steps,
        nprocs=nprocs,
        ok=detail == "ok",
        detail=detail,
        state_fingerprint=reference.steps[-1],
        ledger_fingerprint=reference.ledger,
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
