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

from typing import List, Optional, Sequence

import numpy as np

from repro.core.fine_grained import fine_grained_redistribute
from repro.core.particles import ColumnBlock, ParticleSet
from repro.core.resort import unpack_resort_index
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
    to_origin, _ = unpack_resort_index(np.concatenate([b["origloc"] for b in result_blocks]))
    received = fine_grained_redistribute(
        machine, result_blocks, to_origin, phase=phase, comm="alltoall"
    )
    per_rank_bytes = np.zeros(machine.nprocs)
    for r, block in enumerate(received):
        n = int(old_counts[r])
        if block.n != n:
            raise RuntimeError(
                f"rank {r}: restore received {block.n} results for {n} particles"
            )
        _, pos_idx = unpack_resort_index(block["origloc"])
        pot = np.empty(n)
        field = np.empty((n, 3))
        pot[pos_idx] = block["pot"]
        field[pos_idx] = block["field"]
        particles.pot[r] = pot
        particles.field[r] = field
        per_rank_bytes[r] = block.nbytes
    machine.copy(per_rank_bytes, phase=phase)
