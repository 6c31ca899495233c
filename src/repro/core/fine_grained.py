"""Fine-grained data redistribution (the ZMPI-ATASP analogue, [13,14]).

The operation sends **every particle to an individually computed target
process** using an all-to-all communication, optionally duplicating
particles (ghost particles are "created automatically during the particle
data redistribution step", Sect. II-C).  A user-defined *distribution
function* specifies the target process(es) for each local particle; the
generalized version used by the P2NFFT solver supports duplication by
returning multiple (element, target) pairs per particle.

Data plane: per-rank :class:`~repro.core.particles.ColumnBlock` s in, grouped
per-target sub-blocks over :func:`~repro.simmpi.collectives.alltoallv` (or
the neighborhood variant), concatenated source-ordered blocks out.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.particles import ColumnBlock
from repro.simmpi.collectives import alltoallv, neighborhood_alltoallv
from repro.simmpi.machine import Machine

__all__ = ["COMM_KINDS", "fine_grained_redistribute", "DistResult"]

#: the structured communication strategies of a redistribution exchange (what
#: a :class:`~repro.solvers.base.RunReport` and a
#: :class:`~repro.core.plan.ResortPlan` carry): the general collective, or
#: point-to-point communication with known bounded-distance peers
COMM_KINDS = ("alltoall", "neighborhood")

#: A distribution function returns either a plain per-element target-rank
#: array of shape ``(n,)`` (no duplication), or a pair
#: ``(element_indices, target_ranks)`` of equal-length arrays where repeated
#: element indices create duplicates (ghost particles).
DistResult = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]
DistFn = Callable[[int, ColumnBlock], DistResult]


def _normalize(block: ColumnBlock, result: DistResult) -> Tuple[np.ndarray, np.ndarray]:
    """Canonicalize a distribution-function result to (elem_idx, targets)."""
    if isinstance(result, tuple):
        elem_idx, targets = result
        elem_idx = np.asarray(elem_idx, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if elem_idx.shape != targets.shape or elem_idx.ndim != 1:
            raise ValueError(
                f"duplicating distribution must return equal 1-D arrays, got "
                f"{elem_idx.shape} and {targets.shape}"
            )
        if elem_idx.size and (elem_idx.min() < 0 or elem_idx.max() >= block.n):
            raise ValueError("element indices out of range")
        return elem_idx, targets
    targets = np.asarray(result, dtype=np.int64)
    if targets.shape != (block.n,):
        raise ValueError(
            f"distribution function must return shape ({block.n},), got {targets.shape}"
        )
    return np.arange(block.n, dtype=np.int64), targets


def fine_grained_redistribute(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    dist_fn: DistFn,
    phase: Optional[str] = None,
    *,
    comm: str = "alltoall",
) -> List[ColumnBlock]:
    """Redistribute per-rank blocks according to a distribution function.

    Parameters
    ----------
    blocks:
        one :class:`ColumnBlock` per rank (identical column sets).
    dist_fn:
        called as ``dist_fn(rank, block)``; see :data:`DistResult`.  Targets
        must be valid ranks.  Returning ``(elem_idx, targets)`` with repeated
        ``elem_idx`` duplicates particles (ghosts); elements whose index
        never appears are dropped (ghost removal works the same way).
    comm:
        ``"alltoall"`` uses the general collective with a dense count
        exchange; ``"neighborhood"`` models pre-posted point-to-point
        communication with known peers (Sect. III-B) — the caller guarantees
        targets are bounded-distance neighbors.

    Returns
    -------
    One block per rank: the concatenation of received sub-blocks in source
    rank order (stable within each source, preserving the sender's element
    order — the ordering contract the resort indices rely on).
    """
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    if comm not in COMM_KINDS:
        raise ValueError(f"comm must be one of {COMM_KINDS}, got {comm!r}")

    sends: List[dict] = []
    send_blocks: List[dict] = []  # parallel structure holding ColumnBlocks
    for rank, block in enumerate(blocks):
        elem_idx, targets = _normalize(block, dist_fn(rank, block))
        per_target: dict = {}
        blocks_out: dict = {}
        if targets.size:
            if targets.min() < 0 or targets.max() >= machine.nprocs:
                raise ValueError(f"rank {rank}: target ranks out of range")
            order = np.argsort(targets, kind="stable")
            sorted_targets = targets[order]
            # one gather for the whole rank, then zero-copy views per target
            gathered = block.take(elem_idx[order])
            bounds = np.flatnonzero(np.diff(sorted_targets)) + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [sorted_targets.size]))
            for s, e in zip(starts, ends):
                dst = int(sorted_targets[s])
                sub = gathered.row_slice(int(s), int(e))
                blocks_out[dst] = sub
                per_target[dst] = sub.payload()
        sends.append(per_target)
        send_blocks.append(blocks_out)

    if comm == "alltoall":
        recv = alltoallv(machine, sends, phase)
    else:
        recv = neighborhood_alltoallv(machine, sends, phase)

    out: List[ColumnBlock] = []
    template = blocks[0]
    for dst in range(machine.nprocs):
        received = [send_blocks[src][dst] for src, _payload in recv[dst]]
        if received:
            out.append(ColumnBlock.concat(received))
        else:
            out.append(ColumnBlock.empty_like(template, 0))
    return out
