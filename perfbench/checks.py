"""Correctness checks without pinned goldens.

Every check returns :class:`Op` records; each is one operation in
``failed / attempted``.  Nothing here compares against a stored value, so a
later change to ``src/`` never needs to edit a file of the benchmark: the
checks hold the program to its own invariants, to itself across passes and
variants, and to the exact Ewald reference.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Op",
    "REL_ERR_FACTOR",
    "accuracy_checks",
    "final_state_checks",
    "fingerprint_checks",
    "modeled_repeat_checks",
]

#: how far above the configured ``accuracy`` a solver's RMS potential error
#: against ``ewald_sum`` may sit.  ``accuracy`` is the tuning target of the
#: solvers' parameter planners, not a bound on the RMS error: over eight
#: seeds the FMM measured 0.8-1.5x and the P2NFFT 9-12x at accuracy 1e-3
#: (the tier-1 suite holds the P2NFFT to 2e-2 at accuracy 1e-4).  The factors
#: were fixed from those probes before the first benchmark run.
REL_ERR_FACTOR = {"fmm": 5.0, "p2nfft": 25.0}


@dataclasses.dataclass(frozen=True)
class Op:
    """One checked operation."""

    name: str
    ok: bool
    detail: str = ""


def ids_are_permutation(ids: Sequence[np.ndarray], n: int) -> bool:
    """Whether the per-rank id arrays are exactly a permutation of 0..n-1."""
    flat = np.concatenate(list(ids)) if len(ids) else np.empty(0, dtype=np.int64)
    return flat.shape[0] == n and bool(np.array_equal(np.sort(flat), np.arange(n)))


def final_state_checks(sim, cell) -> List[Op]:
    """Invariants of one cell's final simulation."""
    from repro.verify import run_invariants

    ops = []
    statuses: Dict[str, str] = {}
    for result in run_invariants(sim):
        statuses[result.name] = result.status
        if result.status != "skipped":
            ops.append(
                Op(f"{cell.name}:invariant:{result.name}", not result.failed, result.detail)
            )
    ops.append(
        Op(f"{cell.name}:ids-permutation", ids_are_permutation(sim.ids, cell.n))
    )
    if cell.physics:
        # run_invariants skips energy-drift silently when energy tracking is
        # off; on the physics workload it must actually have run
        status = statuses.get("energy-drift", "missing")
        ops.append(Op(f"{cell.name}:energy-drift-ran", status == "passed", status))
    return ops


def modeled_repeat_checks(per_pass: Sequence[Sequence[Tuple[str, Sequence[float]]]]) -> List[Op]:
    """Modeled seconds of every cell bitwise equal across passes.

    ``per_pass[p]`` lists ``(cell name, modeled floats of its calls)``.
    """
    ops = []
    for entries in zip(*per_pass):
        name, first = entries[0]
        same = all(list(values) == list(first) for _name, values in entries[1:])
        ops.append(Op(f"{name}:modeled-repeats", same))
    return ops


def fingerprint_checks(fingerprints: Dict[str, Dict[str, Dict[str, str]]]) -> List[Op]:
    """All variants of one trajectory end in the bare run's state.

    ``fingerprints[solver][variant]`` is a ``state_fingerprint``.  The
    ``attached`` variant was checkpointed, restored and continued, so its row
    is also the restart-equivalence check.
    """
    ops = []
    for solver, by_variant in sorted(fingerprints.items()):
        bare = by_variant.get("bare")
        for variant, fingerprint in sorted(by_variant.items()):
            if variant == "bare":
                continue
            differing = (
                ["bare run missing"] if bare is None
                else [k for k in bare if fingerprint.get(k) != bare[k]]
            )
            ops.append(
                Op(
                    f"{solver}:{variant}-equals-bare",
                    not differing,
                    "differs in " + ", ".join(differing) if differing else "",
                )
            )
    return ops


def rel_err(pot: np.ndarray, ref: np.ndarray) -> float:
    """RMS potential error relative to the reference RMS, up to a constant
    (solvers fix the arbitrary potential offset differently)."""
    d = pot - ref
    d = d - d.mean()
    return float(np.sqrt((d * d).mean() / (ref * ref).mean()))


def accuracy_checks(n: int, nprocs: int, seed: int, accuracy: float = 1e-3):
    """Both solvers against ``ewald_sum`` on an untimed replica.

    Returns ``(ops, {solver: rel_err})``.  The issue sized the replica at
    n=2048; ``ewald_sum`` is a dense O(27 n^2) reference and takes ~20 s
    there, so the replica is n=512 (~1 s) to stay inside the run-time cap.
    """
    from repro.bench.harness import make_system
    from repro.md.simulation import Simulation, SimulationConfig
    from repro.simmpi.costmodel import JUROPA
    from repro.simmpi.machine import Machine
    from repro.solvers.ewald_ref import ewald_sum

    system = make_system(n, seed)
    ref, _field = ewald_sum(system.pos, system.q, system.box, accuracy=1e-6)
    ops, errors = [], {}
    for solver in ("fmm", "p2nfft"):
        config = SimulationConfig(
            solver=solver, method="B", distribution="grid", seed=seed,
            accuracy=accuracy, dynamics="force",
        )
        sim = Simulation(Machine(nprocs, profile=JUROPA), system, config)
        try:
            sim.initialize()
            err = rel_err(sim.gather_state()["pot"], ref)
        finally:
            sim.fcs.destroy()
        errors[solver] = err
        bound = REL_ERR_FACTOR[solver] * accuracy
        ops.append(
            Op(f"{solver}:rel-err-vs-ewald", err <= bound, f"{err:.3e} (bound {bound:.1e})")
        )
    return ops, errors
