"""The per-rank / per-message redistribution loops, kept as test oracles.

These are the bodies ``fine_grained_redistribute``, ``ghost_distribution``
and ``FMMSolver._halo_exchange`` had before the exchange became one set of
array operations (one dict and one ``ColumnBlock`` view per message, one
full pass per neighbor offset, one key loop per rank), moved here verbatim.
They run on the ``list[dict]`` form of ``alltoallv``; the property tests in
``tests/core/test_redistribution_oracles.py`` hold the production code to
them row for row and charge for charge (:func:`observed` is what "charge"
means there).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fine_grained import COMM_KINDS, DistFn, DistResult
from repro.core.particles import ColumnBlock
from repro.simmpi.cart import CartGrid
from repro.simmpi.collectives import alltoallv, neighborhood_alltoallv
from repro.simmpi.machine import Machine


def observed(machine: Machine):
    """Everything an exchange may charge on an audited machine, comparable
    with ``==``: the clock vector bit for bit, every trace row and counter,
    the auditor's whole state."""
    return (
        [c.hex() for c in machine.clocks.tolist()],
        machine.trace.items(),
        machine.trace.counters(),
        machine.auditor.state_dict(),
    )


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


def fine_grained_redistribute_loop(
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


def ghost_distribution_loop(
    grid: CartGrid,
    pos: np.ndarray,
    rc: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """(element, target) pairs: owner plus ghost duplicates within ``rc``.

    The distribution function of the generalized fine-grained
    redistribution: each particle goes to the rank owning its position, and
    copies go to every rank whose subdomain lies within the cutoff radius
    (the ghost-creation rule of Sect. II-C).  Duplicate (element, target)
    pairs arising from periodic wrap-around on small grids are removed.
    """
    n = pos.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    box = grid.box
    wrapped = grid.offset + np.mod(pos - grid.offset, box)
    cells = grid.cell_of_positions(wrapped)
    owner = grid.rank_of(cells)
    elems = [np.arange(n, dtype=np.int64)]
    targets = [owner]
    rel = wrapped - grid.offset - cells * grid.cell  # in [0, cell)
    ring = np.maximum(np.ceil(rc / grid.cell).astype(np.int64), 1)
    ranges = [range(-int(r), int(r) + 1) for r in ring]
    for o in itertools.product(*ranges):
        if o == (0, 0, 0):
            continue
        d2 = np.zeros(n)
        for k in range(3):
            if o[k] > 0:
                dk = (o[k] - 1) * grid.cell[k] + (grid.cell[k] - rel[:, k])
            elif o[k] < 0:
                dk = (-o[k] - 1) * grid.cell[k] + rel[:, k]
            else:
                continue
            d2 += dk * dk
        within = d2 < rc * rc
        if not within.any():
            continue
        nbr = grid.rank_of(cells[within] + np.asarray(o, dtype=np.int64))
        keep = nbr != owner[within]
        elems.append(np.flatnonzero(within)[keep])
        targets.append(nbr[keep])
    e = np.concatenate(elems)
    t = np.concatenate(targets)
    # dedup on a packed 1-D key (much cheaper than a 2-column unique)
    packed = e * np.int64(grid.nprocs) + t
    packed = np.unique(packed)
    return packed // np.int64(grid.nprocs), packed % np.int64(grid.nprocs)



def halo_exchange_loop(
    self,
    blocks: Sequence[ColumnBlock],
    ownership: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> List[ColumnBlock]:
    """Send boundary-box particle copies to ranks owning adjacent boxes."""
    from repro.zorder.morton import morton_decode3, morton_encode3
    import itertools

    rank_ids, min_keys, max_keys = ownership
    P = self.machine.nprocs
    nside = self.tree.nside_leaf
    send_elems: List[np.ndarray] = []
    send_targets: List[np.ndarray] = []
    for r, block in enumerate(blocks):
        if block.n == 0:
            send_elems.append(np.empty(0, dtype=np.int64))
            send_targets.append(np.empty(0, dtype=np.int64))
            continue
        keys = block["key"]
        boxes, first = np.unique(keys, return_index=True)
        last = np.concatenate((first[1:], [keys.shape[0]]))
        bx, by, bz = (c.astype(np.int64) for c in morton_decode3(boxes))
        dest_box: List[np.ndarray] = []
        dest_rank: List[np.ndarray] = []
        for d in itertools.product((-1, 0, 1), repeat=3):
            if d == (0, 0, 0):
                continue
            nx, ny, nz = bx + d[0], by + d[1], bz + d[2]
            if self.periodic:
                nx, ny, nz = nx % nside, ny % nside, nz % nside
                mask = np.ones(boxes.shape[0], dtype=bool)
            else:
                mask = (
                    (nx >= 0) & (nx < nside)
                    & (ny >= 0) & (ny < nside)
                    & (nz >= 0) & (nz < nside)
                )
                if not mask.any():
                    continue
                nx, ny, nz = nx[mask], ny[mask], nz[mask]
            nkeys = morton_encode3(nx, ny, nz)
            ki, owners = self._owners_of_keys(nkeys, rank_ids, min_keys, max_keys)
            box_idx = np.flatnonzero(mask)[ki]
            keep = owners != r
            dest_box.append(box_idx[keep])
            dest_rank.append(owners[keep])
        if dest_box:
            db = np.concatenate(dest_box)
            dr = np.concatenate(dest_rank)
            pairs = np.unique(np.stack([db, dr], axis=1), axis=0)
            db, dr = pairs[:, 0], pairs[:, 1]
            seg_len = (last - first)[db]
            elems = np.concatenate(
                [np.arange(first[b], last[b]) for b in db]
            ) if db.size else np.empty(0, dtype=np.int64)
            targets = np.repeat(dr, seg_len)
        else:
            elems = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
        send_elems.append(elems)
        send_targets.append(targets)

    halo_in = [b.drop("origloc") for b in blocks]

    def dist(rank: int, block: ColumnBlock):
        return send_elems[rank], send_targets[rank]

    return fine_grained_redistribute_loop(
        self.machine, halo_in, dist, phase="halo", comm="neighborhood"
    )

