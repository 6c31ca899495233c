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

from typing import Sequence, Union

import numpy as np

from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.core.resort import deliver_to_slots
from repro.simmpi.machine import Machine

__all__ = ["restore_results"]


def restore_results(
    machine: Machine,
    origloc: Union[RankMajor, Sequence[np.ndarray]],
    pots: Union[RankMajor, Sequence[np.ndarray]],
    fields: Union[RankMajor, Sequence[np.ndarray]],
    particles: ParticleSet,
    old_counts: Sequence[int],
    phase: str = "restore",
) -> None:
    """Send potentials/fields back to each particle's initial location.

    ``origloc`` holds, rank-major, the packed initial location of every
    particle in its current place, ``pots`` and ``fields`` its results (one
    array per rank is concatenated once, here); the results are written into
    the ``pot`` and ``field`` columns of ``particles`` in the application's
    original order.
    """
    origloc = RankMajor.of(origloc)
    rows = ColumnBlock(
        origloc=np.asarray(origloc.data, dtype=np.int64),
        pot=RankMajor.of(pots).data,
        field=RankMajor.of(fields).data,
    )
    placed = deliver_to_slots(
        machine, RankMajor(rows, origloc.offsets), "origloc", old_counts, phase, "alltoall",
        lambda rank, sent, n: RuntimeError(
            f"rank {rank}: restore received {sent} results for {n} particles"
        ),
    )
    particles.block["pot"] = placed["pot"]
    particles.block["field"] = placed["field"]
    # the local permutation moves what was received: index value, potential, field
    counts = np.asarray(old_counts, dtype=np.int64)
    machine.copy((rows.row_nbytes * counts).astype(np.float64), phase=phase)
