"""Method A: restoring the original particle order and distribution.

Both solvers carry a packed 64-bit *index value* per particle copy (source
rank in the upper 32 bits, source position in the lower 32 — Sect. III-A)
through their reordering.  Restoring sends each calculated result back to
the particle's initial process with the fine-grained redistribution
operation and then scatters it to the initial position with a local
permutation.  The application's position/charge arrays are untouched (the
solvers work on copies), so after the restore everything is exactly as the
application submitted it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.particles import ColumnBlock, ParticleSet
from repro.core.resort import deliver_to_slots
from repro.simmpi.machine import Machine

__all__ = ["restore_results"]


def restore_results(
    machine: Machine,
    origloc: Sequence[np.ndarray],
    pots: Sequence[np.ndarray],
    fields: Sequence[np.ndarray],
    particles: ParticleSet,
    old_counts: Sequence[int],
    phase: str = "restore",
) -> None:
    """Send potentials/fields back to each particle's initial location.

    ``origloc[r]`` holds the packed initial location of every particle
    currently on rank ``r``; results are written into ``particles.pot`` and
    ``particles.field`` in the application's original order.
    """
    result_blocks = [
        ColumnBlock(origloc=np.asarray(origloc[r], dtype=np.int64), pot=pots[r], field=fields[r])
        for r in range(machine.nprocs)
    ]
    placed = deliver_to_slots(
        machine, result_blocks, "origloc", old_counts, phase, "alltoall",
        lambda rank, sent, n: RuntimeError(
            f"rank {rank}: restore received {sent} results for {n} particles"
        ),
    )
    counts = np.asarray([int(c) for c in old_counts], dtype=np.int64)
    cuts = np.cumsum(counts)[:-1]
    particles.pot[:] = np.split(placed["pot"], cuts)
    particles.field[:] = np.split(placed["field"], cuts)
    # the local permutation moves what was received: index value, potential, field
    machine.copy((result_blocks[0].row_nbytes * counts).astype(np.float64), phase=phase)
