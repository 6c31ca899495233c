"""The per-rank / per-message redistribution loops, kept as test oracles.

These are the bodies ``fine_grained_redistribute``, ``ghost_distribution``
and ``FMMSolver._halo_exchange`` had before the exchange became one set of
array operations (one dict and one ``ColumnBlock`` view per message, one
full pass per neighbor offset, one key loop per rank), and the bodies
``ResortPlan`` (schedule compile, byte-record execute), ``partition_sort``
(split, exchange, merge) and the three resort-index scatters
(``invert_indices``, ``apply_resort``, ``restore_results``) had before they
became callers of that one exchange, moved here verbatim — and, one step
later, the row-array ``ghost_distribution`` and the always-``argsort``
``exchange_route`` the grid placement ran on before it decided ownership
once (:func:`ghost_distribution_rows`, :func:`exchange_route_argsort`) and
the one it ran on before it swept each target class once and merged its
ghost counts where they are made (:func:`ghost_distribution_per_offset`), the
placement's receiver-side pick of the owned copies from every delivered
copy's origin (:func:`owned_copies_by_origin`), the delivery of the kept
receive positions of a listed skip-compute exchange (:func:`recv_rows_kept`),
and
the ``merge_exchange_sort`` that merged every overlapping pair of a comparator
round on its own (:func:`merge_exchange_sort_pairwise`), with the payload
form of ``exchange_pairs`` it ran on (:func:`exchange_pairs_payloads`; the
only edit: its auditor hook takes ``(src, dst, nbytes)`` arrays now), and
the resort scatter, the plan and the partition sort of the listed route,
which delivered every row in receive order before putting it in its slot
(:func:`deliver_to_slots_delivered`, :class:`ResortPlanDelivered`,
:func:`partition_sort_delivered`).
The loops run on the ``list[dict]`` form of ``alltoallv``; the property tests in
``tests/core/test_redistribution_oracles.py`` hold the production code to
them row for row and charge for charge (:func:`observed` is what "charge"
means there).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.core.balance import work_split_bounds
from repro.core.fine_grained import (
    COMM_KINDS,
    DistFn,
    DistResult,
    exchange_route,
    fine_grained_redistribute,
    pair_key_bits,
    redistribute_flat,
    sorted_route,
    stable_order,
)
from repro.core.particles import ColumnBlock, ParticleSet, RankMajor
from repro.core.plan import COMPILE_PHASE, ResortPlan, ResortPlanStats, _flat_column
from repro.core.resort import (
    RESORT_POS_BITS,
    check_target_slots,
    initial_numbering,
    inverse_permutation,
    unpack_resort_index,
)
from repro.obs.spans import machine_span
from repro.simmpi.cart import CartGrid
from repro.simmpi.collectives import (
    Exchange,
    Payload,
    alltoallv,
    neighborhood_alltoallv,
    payload_nbytes,
)
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import _check_disjoint, _route
from repro.solvers.p2nfft.solver import _cell_columns
from repro.sorting.batcher import merge_exchange_rounds
from repro.sorting.merge_sort import _verify_sorted, local_sort, sorted_within_ranks
from repro.sorting.partition_sort import (
    partition_destinations,
    select_splitters,
    split_by_destination,
)


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


def assert_same_arrays(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> None:
    """The same arrays in the same order: dtype, shape and every value."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


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
            out.append(template.row_slice(0, 0))
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
    (The body of two rewrites ago; like :func:`ghost_distribution_rows` it
    has gained the wrap rule, and nothing else.)
    """
    n = pos.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    box = grid.box
    w = np.mod(pos - grid.offset, box)
    wrapped = grid.offset + np.where(w < box, w, 0.0)
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


def ghost_distribution_rows(
    grid: CartGrid,
    pos: np.ndarray,
    rc: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``ghost_distribution`` as it was on ``(n, 3)`` row arrays — one
    ``reach`` pass per (axis, component), one ``(k, 3)`` gather and ``%`` per
    offset — with the one-line wrap rule added (a wrap result equal to the
    box edge is the lower face)."""
    n = pos.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    box = grid.box
    w = np.mod(pos - grid.offset, box)
    wrapped = grid.offset + np.where(w < box, w, 0.0)
    cells = grid.cell_of_positions(wrapped)
    owner = grid.rank_of(cells)
    elems = [np.arange(n, dtype=np.int64)]
    targets = [owner]
    rel = wrapped - grid.offset - cells * grid.cell  # in [0, cell)
    ring = np.maximum(np.ceil(rc / grid.cell).astype(np.int64), 1)
    ranges = [range(-int(r), int(r) + 1) for r in ring]
    rc2 = rc * rc

    def face2(k: int, c: int, rows) -> np.ndarray:
        """Squared distance of ``rows`` to the subdomain ``c`` cells away
        along axis ``k``."""
        if c > 0:
            dk = (c - 1) * grid.cell[k] + (grid.cell[k] - rel[rows, k])
        else:
            dk = (-c - 1) * grid.cell[k] + rel[rows, k]
        return dk * dk

    # one pass over all rows per (axis, component): the rows it leaves within
    # the cutoff.  An offset is at least as far as its first non-zero
    # component, so its own pass only looks at those.
    reach = {
        (k, c): np.flatnonzero(face2(k, c, slice(None)) < rc2)
        for k in range(3) for c in ranges[k] if c
    }
    for o in itertools.product(*ranges):
        axes = [k for k in range(3) if o[k]]
        if not axes:
            continue
        rows = reach[axes[0], o[axes[0]]]
        # summed in axis order, so each comparison is bitwise the one a
        # pass over all rows would make
        d2 = face2(axes[0], o[axes[0]], rows)
        for k in axes[1:]:
            d2 += face2(k, o[k], rows)
        rows = rows[d2 < rc2]
        if not rows.size:
            continue
        nbr = grid.rank_of(cells[rows] + np.asarray(o, dtype=np.int64))
        keep = nbr != owner[rows]
        elems.append(rows[keep])
        targets.append(nbr[keep])
    e = np.concatenate(elems)
    t = np.concatenate(targets)
    # dedup on a packed 1-D key (much cheaper than a 2-column unique)
    packed = e * np.int64(grid.nprocs) + t
    packed.sort()
    distinct = np.ones(packed.shape[0], dtype=bool)
    distinct[1:] = packed[1:] != packed[:-1]
    packed = packed[distinct]
    return packed // np.int64(grid.nprocs), packed % np.int64(grid.nprocs)


def _union_per_offset(parts: List[np.ndarray], n: int) -> np.ndarray:
    """The rows in any of ``parts`` (subsets of ``range(n)``), each once."""
    if len(parts) == 1:
        return parts[0]
    seen = np.zeros(n, dtype=bool)
    for rows in parts:
        seen[rows] = True
    return np.flatnonzero(seen)


def ghost_distribution_per_offset(
    grid: CartGrid,
    pos: np.ndarray,
    rc: float,
    row_offsets: np.ndarray,
    counted: bool = False,
) -> Tuple[Exchange, np.ndarray]:
    """``ghost_distribution`` as it was before its target classes were swept
    once each and its counts merged where they are made: one pass per
    neighbor offset, the offsets of a class unioned, every shifted-rank
    table built per call, and the counted route's owner rows placed per
    merge entry.

    ``(route, owned)``: the route of the placement — every row to its
    owner plus ghost duplicates within ``rc`` — and the route positions of
    the owner copies, ascending, one per row.

    The distribution function of the generalized fine-grained
    redistribution: each particle goes to the rank owning its position, and
    copies go to every rank whose subdomain lies within the cutoff radius
    (the ghost-creation rule of Sect. II-C).  ``pos`` are the rank-major
    rows cut by ``row_offsets``.  Every (row, target) pair is named once;
    within a message the rows rise.  This is the only place a position is
    turned into an owning rank: the copy of a row that is not a ghost is the
    pair whose target is that rank, marked while the route is made
    (:meth:`~repro.simmpi.collectives.Exchange.recv_positions` says where
    it lands).

    ``counted`` (a placement whose ghosts no phase reads) lists the owner
    copies alone and charges each message its ghost copies by count
    (:attr:`~repro.simmpi.collectives.Exchange.sent`): the same messages and
    row counts as the listed route, and it delivers the owner copies in the
    order the listed route delivers them, but no ghost pair is made.  Every
    route position is then an owner copy.

    Raises ``ValueError`` before any work when the packed ``(source,
    target, row)`` key of the route would not fit 63 bits, counted or not.
    """
    n = pos.shape[0]
    P = grid.nprocs
    rank_bits, row_bits = pair_key_bits(P, n)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return sorted_route(empty, 1 << rank_bits, empty), empty
    cell = grid.cell
    # from here on one contiguous column per axis: the cell coordinate, the
    # position within the cell and, the rank of a cell being a sum over the
    # axes, the share of every coordinate along the axis in it
    cell_k, rel = _cell_columns(grid, pos)
    share = []
    for k in range(3):
        along = np.zeros((grid.dims[k], 3), dtype=np.int64)
        along[:, k] = np.arange(grid.dims[k])
        share.append(grid.rank_of(along))
    owner = share[0][cell_k[0]] + share[1][cell_k[1]] + share[2][cell_k[2]]
    ring = [max(int(np.ceil(rc / cell[k])), 1) for k in range(3)]
    spans = [range(-ring[k], ring[k] + 1) for k in range(3)]
    rc2 = rc * rc
    # per axis and non-zero component: every row's squared distance to the
    # subdomain that many cells away
    face2 = {}
    for k in range(3):
        for c in spans[k]:
            if c > 0:
                dk = (c - 1) * cell[k] + (cell[k] - rel[k])
            elif c < 0:
                dk = (-c - 1) * cell[k] + rel[k]
            else:
                continue
            face2[k, c] = dk * dk

    def within(k: int, c: int, rows, d2):
        """``(rows, d2)`` one component further: of ``rows`` (``None``: all
        rows, nothing measured yet) those still within the cutoff once the
        subdomain lies ``c`` cells away along axis ``k`` too, and their
        squared distances, summed in axis order."""
        if c == 0:
            return rows, d2
        if rows is None:
            near = np.flatnonzero(face2[k, c] < rc2)
            return near, face2[k, c][near]
        d2 = d2 + face2[k, c][rows]
        near = np.flatnonzero(d2 < rc2)
        return rows[near], d2[near]

    # Offsets equal modulo the grid dims land on one rank for every owner: a
    # *target class*.  Class (0, 0, 0) is the owner itself.  Along an axis
    # at least 2·ring + 1 subdomains wide the offsets within the ring are
    # distinct classes, none of them the owner: only a narrower grid wraps a
    # ghost back onto its owner or two offsets onto one class, whose copy of
    # a row within the cutoff of both is one copy.
    reach = {}
    # An offset is at least as far as its leading components, so each axis
    # only looks at the rows the axes before it left within the cutoff; the
    # sums run in axis order, so each comparison is bitwise the one a pass
    # over all rows for that offset alone would make.
    for c0 in spans[0]:
        rows0, d0 = within(0, c0, None, None)
        if rows0 is not None and not rows0.size:
            continue
        for c1 in spans[1]:
            rows1, d1 = within(1, c1, rows0, d0)
            if rows1 is not None and not rows1.size:
                continue
            for c2 in spans[2]:
                rows, _ = within(2, c2, rows1, d1)
                if rows is None or not rows.size:  # None: the subdomain itself
                    continue
                shift = (c0 % grid.dims[0], c1 % grid.dims[1], c2 % grid.dims[2])
                if any(shift):
                    reach.setdefault(shift, []).append(rows)
    # one entry per class, consumed (popped) by either assembly so that a
    # class's rows are freed once they are packed or counted
    ghosts = [(grid.shifted_ranks(shift), _union_per_offset(reach.pop(shift), n)) for shift in list(reach)]

    if counted:
        return _counted_route_per_entry(P, owner, row_offsets, ghosts), np.arange(n)
    # Every (row, target) pair is one int64 — source rank, target, row, from
    # the high bits down — so one sort of the values is the route order.
    # ``head`` is the source and row part.
    head = np.repeat(np.arange(P, dtype=np.int64) << (rank_bits + row_bits), np.diff(row_offsets))
    head |= np.arange(n, dtype=np.int64)
    packed = [head | (owner << row_bits)]
    while ghosts:
        shifted, rows = ghosts.pop()
        target = shifted[owner[rows]]
        target <<= row_bits
        target |= head[rows]
        packed.append(target)
    packed = np.concatenate(packed)
    packed.sort()
    # A pair is its row's owner copy iff its target is the row's owner (a
    # ghost never targets it, so every row has exactly one).  One buffer
    # holds each pair's row, then the owner of that row shifted onto the
    # target bits, then their difference — and at last the rows again.
    row_mask = (1 << row_bits) - 1
    mark = packed & row_mask
    # rows are in range; ``clip`` gathers over the index vector unbuffered
    np.take(owner, mark, out=mark, mode="clip")
    mark <<= row_bits
    mark ^= packed
    mark &= ((1 << rank_bits) - 1) << row_bits
    owned = np.flatnonzero(mark == 0)
    rows = np.bitwise_and(packed, row_mask, out=mark)
    packed >>= row_bits
    return sorted_route(packed, 1 << rank_bits, rows), owned


def _counted_route_per_entry(
    P: int,
    owner: np.ndarray,
    row_offsets: np.ndarray,
    ghosts: List[Tuple[np.ndarray, np.ndarray]],
) -> Exchange:
    """The placement's route listing the owner copies alone, its ghosts
    charged by count: ``ghosts`` holds, per target class, the shifted-rank
    table and the rows (each once) with a copy there; it is emptied as the
    copies are counted.

    The owner copies travel as the plain ``(source, owner, row)`` route
    (:func:`~repro.core.fine_grained.exchange_route`), one *row group* per
    message.  Every row of a group has its class's copy on the one rank the
    class shifts the group's owner to, so the copies of a class are counted
    per group — one ``bincount`` over the groups, or one entry per copy
    where the class has fewer copies than there are groups; a row's copies
    go to distinct ranks, none its owner.  The ``(source, target, count)``
    entries, packed into one ``uint64`` each, are merged into messages by
    one sort of the values.
    """
    n = owner.shape[0]
    owners = exchange_route(row_offsets, np.arange(n), owner)
    size = np.diff(owners.row_ptr)
    n_groups = size.shape[0]
    group = np.empty(n, dtype=np.int64)
    group[owners.row_index] = np.repeat(np.arange(n_groups), size)
    group_src, group_owner = owners.msg_src * P, owners.msg_dst
    group_key = group_src + group_owner
    # a count is at most n: ``count_bits`` hold it below the (source,
    # target) key, which ``pair_key_bits`` leaves room for
    count_bits = np.uint64(n.bit_length())
    entries = [(group_key.astype(np.uint64) << count_bits) | size.astype(np.uint64)]
    while ghosts:
        shifted, rows = ghosts.pop()
        hit = group[rows]
        count = np.uint64(1)
        if hit.shape[0] >= n_groups:
            count = np.bincount(hit, minlength=n_groups)
            hit = np.flatnonzero(count)
            count = count[hit].astype(np.uint64)
        entry = group_src[hit]
        entry += shifted[group_owner[hit]]
        entry = entry.astype(np.uint64) << count_bits
        entry |= count
        entries.append(entry)
    entries = np.concatenate(entries)
    entries.sort()
    key = (entries >> count_bits).view(np.int64)
    entries &= (np.uint64(1) << count_bits) - np.uint64(1)
    # the owner copies a message lists are its row group's, if it has one
    rows = np.zeros(key.shape[0], dtype=np.int64)
    rows[np.searchsorted(key, group_key)] = size
    return sorted_route(key, P, owners.row_index, rows=rows, sent=entries.view(np.int64))


def exchange_route_argsort(
    row_offsets: np.ndarray, elements: np.ndarray, targets: np.ndarray
) -> Exchange:
    """``exchange_route`` as it was: a ``searchsorted`` per pair for the
    source rank, then one stable ``argsort`` of the ``src * P + dst`` key and
    two gathers, whatever order the pairs come in."""
    P = row_offsets.shape[0] - 1
    sources = np.searchsorted(row_offsets, elements, side="right") - 1
    if targets.size and (targets.min() < 0 or targets.max() >= P):
        bad = (targets < 0) | (targets >= P)
        raise ValueError(f"rank {int(sources[bad].min())}: target ranks out of range")
    key = sources
    key *= P
    key += targets
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.shape[0], dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    return Exchange(
        columns=(),
        row_index=elements[order],
        msg_src=key[starts] // P,
        msg_dst=key[starts] % P,
        row_ptr=np.append(starts, key.shape[0]),
    )


def owned_copies_by_origin(
    local_all: RankMajor, owner: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, RankMajor]:
    """``(own, owned)``: the receive positions of a grid placement's owner
    copies, ascending, and those rows rank-major — the tail of
    ``GridSolver._place`` before ``ghost_distribution`` marked the owner
    copies on the route: every delivered copy's origin is unpacked and its
    receiving rank compared with the owner of the row it is a copy of.
    ``owner`` is that owner per rank-major input row, cut by ``offsets``."""
    P = offsets.shape[0] - 1
    # a copy knows the element it is a copy of from the origin it
    # carries, and is the owned one iff it arrived at that element's owner
    src, row = unpack_resort_index(local_all.data["index"])
    arrived_at = np.repeat(np.arange(P, dtype=np.int64), local_all.counts)
    own = np.flatnonzero(owner[offsets[src] + row] == arrived_at)
    owned = RankMajor(local_all.data.take(own), np.searchsorted(own, local_all.offsets))
    return own, owned


def recv_rows_kept(
    self: Exchange, keep: Optional[np.ndarray], nprocs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``Exchange.recv_rows`` while a skip-compute placement listed every
    copy and named the ascending receive positions to deliver (``keep``,
    then a field of the exchange, now an argument; the body is verbatim):
    which buffer row every kept received row is a copy of, in ``(dst,
    src)`` order, and the ``recv_offsets`` splitting them by receiver.

    The send-side order ``row_index`` and the regrouping of whole
    messages by destination are composed into one index vector, so no
    send buffer is materialized between the two; a kept subset is found
    message by message (one bisection each), never cut out of the whole.
    """
    by_dst, lens, starts = self._receive_order()
    rows_to = np.zeros(nprocs, dtype=np.int64)
    np.add.at(rows_to, self.msg_dst, np.diff(self.row_ptr))
    recv_offsets = np.concatenate(([0], np.cumsum(rows_to)))
    if keep is None:
        positions = np.arange(self.row_index.shape[0])
    else:
        positions = keep
        lens = np.diff(np.searchsorted(positions, np.append(starts, self.row_index.shape[0])))
        recv_offsets = np.searchsorted(positions, recv_offsets)
    gather = np.repeat(self.row_ptr[:-1][by_dst] - starts, lens)
    gather += positions
    # every index is in range; ``clip`` lets the gather overwrite its own
    # index vector unbuffered (entry i is read before entry i is written)
    np.take(self.row_index, gather, out=gather, mode="clip")
    return gather, recv_offsets


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


def _per_rank(values: np.ndarray, blocks: Sequence[ColumnBlock]):
    """A global per-row array as the distribution function of its blocks."""
    cuts = np.cumsum([b.n for b in blocks])[:-1]
    parts = np.split(values, cuts)
    return lambda rank, block: parts[rank]


def invert_indices_loop(
    machine: Machine,
    origloc: Sequence[np.ndarray],
    orig_counts: Sequence[int],
    phase: Optional[str] = None,
    *,
    comm: str = "alltoall",
) -> List[np.ndarray]:
    """``invert_indices`` with its per-rank receive loop."""
    if len(origloc) != machine.nprocs or len(orig_counts) != machine.nprocs:
        raise ValueError("origloc/orig_counts must have one entry per rank")
    origloc = [np.asarray(ol, dtype=np.int64) for ol in origloc]
    current = initial_numbering([ol.shape[0] for ol in origloc])
    blocks = [ColumnBlock(origloc=ol, current=cur) for ol, cur in zip(origloc, current)]
    to_original, _ = unpack_resort_index(np.concatenate(origloc))
    received = fine_grained_redistribute_loop(
        machine, blocks, _per_rank(to_original, blocks), phase, comm=comm
    )

    out: List[np.ndarray] = []
    for r, block in enumerate(received):
        n = int(orig_counts[r])
        if block.n != n:
            raise ValueError(
                f"rank {r}: received {block.n} index values for {n} original particles"
            )
        _, pos = unpack_resort_index(block["origloc"])
        result = np.empty(n, dtype=np.int64)
        result[pos] = block["current"]
        out.append(result)
    # local permutation cost: scatter 8-byte values into place, per rank
    machine.copy(8.0 * np.asarray([int(c) for c in orig_counts], dtype=np.float64), phase)
    return out


def apply_resort_loop(
    machine: Machine,
    resort_indices: Sequence[np.ndarray],
    data: Sequence[ColumnBlock],
    new_counts: Sequence[int],
    phase: Optional[str] = None,
    *,
    comm: str = "alltoall",
) -> List[ColumnBlock]:
    """``apply_resort`` with its per-rank receive loop."""
    if not (len(resort_indices) == len(data) == len(new_counts) == machine.nprocs):
        raise ValueError("per-rank sequences must have one entry per rank")
    blocks: List[ColumnBlock] = []
    for r, (idx, block) in enumerate(zip(resort_indices, data)):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.shape != (block.n,):
            raise ValueError(
                f"rank {r}: {idx.shape[0]} resort indices for {block.n} data rows"
            )
        b = block.copy()
        b["_resort"] = idx
        blocks.append(b)

    to_target, _ = unpack_resort_index(np.concatenate([b["_resort"] for b in blocks]))
    received = fine_grained_redistribute_loop(
        machine, blocks, _per_rank(to_target, blocks), phase, comm=comm
    )

    out: List[ColumnBlock] = []
    per_rank_bytes = np.zeros(machine.nprocs, dtype=np.float64)
    for r, block in enumerate(received):
        n = int(new_counts[r])
        if block.n != n:
            raise ValueError(f"rank {r}: received {block.n} rows, expected {n}")
        _, pos = unpack_resort_index(block["_resort"])
        result = block.drop("_resort").take(inverse_permutation(pos, n, r))
        out.append(result)
        per_rank_bytes[r] = result.nbytes
    machine.copy(per_rank_bytes, phase)
    return out


def restore_results_loop(
    machine: Machine,
    origloc: Sequence[np.ndarray],
    pots: Sequence[np.ndarray],
    fields: Sequence[np.ndarray],
    particles: ParticleSet,
    old_counts: Sequence[int],
    phase: str = "restore",
) -> None:
    """``restore_results`` with its per-rank receive loop."""
    result_blocks = [
        ColumnBlock(origloc=np.asarray(origloc[r], dtype=np.int64), pot=pots[r], field=fields[r])
        for r in range(machine.nprocs)
    ]
    to_origin, _ = unpack_resort_index(np.concatenate([b["origloc"] for b in result_blocks]))
    received = fine_grained_redistribute_loop(
        machine, result_blocks, _per_rank(to_origin, result_blocks), phase=phase, comm="alltoall"
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
        particles.pot[r][:] = pot  # through the view: a read view takes no item
        particles.field[r][:] = field
        per_rank_bytes[r] = block.nbytes
    machine.copy(per_rank_bytes, phase=phase)


def partition_sort_loop(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
    *,
    target_counts: Optional[Sequence[int]] = None,
    oversampling: int = 32,
    presorted: bool = False,
    balance_key: Optional[str] = None,
) -> List[ColumnBlock]:
    """``partition_sort`` with its split -> dict -> ``alltoallv`` -> concat
    exchange and its per-destination merge of the senders' sub-blocks."""
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    if balance_key is not None and target_counts is not None:
        raise ValueError("pass either balance_key or target_counts, not both")
    P = machine.nprocs
    current = list(blocks if presorted else local_sort(machine, blocks, key, phase))
    if balance_key is None:
        if target_counts is None:
            target_counts = [b.n for b in current]
        else:
            target_counts = [int(c) for c in target_counts]
            total = sum(b.n for b in current)
            if sum(target_counts) != total:
                raise ValueError(
                    f"target_counts sum {sum(target_counts)} != total elements {total}"
                )
    if P == 1:
        return current

    select_splitters(
        machine,
        [b[key] for b in current],
        oversampling,
        phase,
        weights=None if balance_key is None else [b[balance_key] for b in current],
    )
    machine.collective(
        machine.model.tree_collective_time(P, 16.0, machine.topology.diameter()),
        phase,
        messages=2 * (P - 1),
    )

    all_keys = np.concatenate([b[key] for b in current])
    order = np.argsort(all_keys, kind="stable")  # stable = (rank, pos) tie order
    if balance_key is not None:
        all_weights = np.concatenate([b[balance_key] for b in current])
        bounds = work_split_bounds(all_weights[order], P)
    else:
        bounds = np.concatenate(
            ([0], np.cumsum(np.asarray(target_counts, dtype=np.int64)))
        )
    dest = partition_destinations(order, bounds)

    sends: List[dict] = []
    send_blocks: List[dict] = []
    offset = 0
    for r, block in enumerate(current):
        d = dest[offset:offset + block.n]
        offset += block.n
        blocks_out = split_by_destination(block, d)
        per_target = {dst: sub.payload() for dst, sub in blocks_out.items()}
        sends.append(per_target)
        send_blocks.append(blocks_out)

    recv = alltoallv(machine, sends, phase)

    out: List[ColumnBlock] = []
    merge_cost = np.zeros(P, dtype=np.float64)
    template = current[0]
    for dst in range(P):
        received = [send_blocks[src][dst] for src, _payload in recv[dst]]
        if not received:
            out.append(template.row_slice(0, 0))
            continue
        merged = ColumnBlock.concat(received)
        morder = np.argsort(merged[key], kind="stable")
        merged = merged.take(morder)
        out.append(merged)
        if merged.n > 1:
            # k-way merge of sorted runs: n log k
            merge_cost[dst] = kernels.SORT_STEP * merged.n * np.log2(max(len(received), 2))
    machine.compute(merge_cost, phase)
    return out


def exchange_pairs_payloads(
    machine: Machine,
    exchanges: Sequence[Tuple[int, int, Payload, Payload]],
    phase: Optional[str] = None,
) -> Dict[Tuple[int, int], Tuple[Payload, Payload]]:
    """Simultaneous pairwise exchanges ``(a, b, payload_a_to_b, payload_b_to_a)``.

    Both directions overlap (MPI_Sendrecv): each side pays its send overhead
    plus the arrival of the other side's message.  Each rank may appear in at
    most one pair per call (a comparator round of a sorting network).

    Returns a dict mapping ``(a, b)`` to ``(received_at_a, received_at_b)``
    i.e. ``(payload_b_to_a, payload_a_to_b)``.
    """
    model = machine.model
    ends = np.array([pair[:2] for pair in exchanges], dtype=np.int64).reshape(-1, 2)
    _check_disjoint(machine, ends)
    # The pairs of a round are disjoint, so the round is charged as one set
    # of array operations over (pair, direction) — the same float operations
    # in the same order as a pair at a time, which was the largest host cost
    # of a comparator round.  Column 0 is a and its message to b, column 1 is
    # b and its message to a.
    sizes = np.asarray(
        [(payload_nbytes(pa), payload_nbytes(pb)) for _a, _b, pa, pb in exchanges], dtype=np.int64
    ).reshape(-1, 2)
    if machine.auditor is not None:
        machine.auditor.observe_round(ends.ravel(), ends[:, ::-1].ravel(), sizes.ravel(), phase)
    token = machine.begin()
    # both directions of every pair ship as one backend round
    delivered = _route(
        machine,
        [m for a, b, pa, pb in exchanges for m in ((a, b, pa), (b, a, pb))],
    )
    copies = model.copy_time(sizes)
    wires = model.msg_time(machine.topology.hops(ends[:, 0], ends[:, 1])[:, None], sizes)
    # a message is as slow as its slowest endpoint (degraded-NIC perturbation)
    factors = machine.comm_factors
    pair_factor = 1.0 if factors is None else factors[ends].max(axis=1)[:, None]
    posted = machine.clocks[ends] + model.overhead + copies
    arrived = posted + wires * pair_factor - model.overhead
    machine.clocks[ends] = np.maximum(posted, arrived[:, ::-1]) + copies[:, ::-1]
    machine.commit(token, phase, "exchange_pairs", 2 * len(exchanges), int(sizes.sum()))
    return {
        (a, b): (delivered[2 * i + 1], delivered[2 * i]) for i, (a, b) in enumerate(ends.tolist())
    }


def _control_payload(block: ColumnBlock, key: str) -> np.ndarray:
    """(count, min key, max key) as a 3-element array (24-byte message)."""
    keys = block[key]
    if keys.shape[0] == 0:
        return np.zeros(3, dtype=np.uint64)
    return np.asarray([keys.shape[0], keys[0], keys[-1]], dtype=np.uint64)


def merge_exchange_sort_pairwise(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
    *,
    presorted: bool = False,
    verify: bool = True,
) -> Tuple[List[ColumnBlock], bool]:
    """``merge_exchange_sort`` with one control payload per rank and round
    and, per overlapping pair, its own windows, concats, argsorts and block
    rebuilds."""
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    current = list(blocks if presorted else local_sort(machine, blocks, key, phase))
    P = machine.nprocs
    if P == 1:
        return current, True

    for round_pairs in merge_exchange_rounds(P):
        # 1. control exchange: (count, min, max) both ways for every pair
        controls = exchange_pairs_payloads(
            machine,
            [
                (a, b, _control_payload(current[a], key), _control_payload(current[b], key))
                for a, b in round_pairs
            ],
            phase,
        )
        # 2. decide which pairs actually overlap; windows are a suffix of a
        #    (keys >= b.min) and a prefix of b (keys <= a.max), both
        #    non-empty whenever the runs overlap
        windows: List[Tuple[int, int, ColumnBlock, ColumnBlock, int, int]] = []
        for a, b in round_pairs:
            ctrl_b, ctrl_a = controls[(a, b)]  # received at a: b's control
            count_a, _min_a, max_a = int(ctrl_a[0]), ctrl_a[1], ctrl_a[2]
            count_b, min_b, _max_b = int(ctrl_b[0]), ctrl_b[1], ctrl_b[2]
            if count_a == 0 or count_b == 0:
                continue
            if max_a <= min_b:
                continue  # already ordered: no particle data moves
            keys_a = current[a][key]
            keys_b = current[b][key]
            na_win = count_a - int(np.searchsorted(keys_a, min_b, side="left"))
            nb_win = int(np.searchsorted(keys_b, max_a, side="right"))
            wa = current[a].take(np.arange(count_a - na_win, count_a))
            wb = current[b].take(np.arange(nb_win))
            windows.append((a, b, wa, wb, na_win, nb_win))
        if not windows:
            continue
        # 3. window exchange (both directions overlap, one message each way)
        exchanged = exchange_pairs_payloads(
            machine,
            [(a, b, wa.payload(), wb.payload()) for a, b, wa, wb, _, _ in windows],
            phase,
        )
        # 4. each side merges its own window with the one it received and
        #    keeps its share of the original counts: a the lowest na_win, b
        #    the highest nb_win.  Both sides concatenate in (a-window,
        #    b-window) order and sort stably, so they derive the same
        #    permutation of the same combined window.
        merge_cost = np.zeros(P, dtype=np.float64)
        for a, b, wa, wb, na_win, nb_win in windows:
            from_b, from_a = (
                ColumnBlock(**dict(zip(wa.names(), payload))) for payload in exchanged[(a, b)]
            )
            at_a = ColumnBlock.concat([wa, from_b])
            at_b = ColumnBlock.concat([from_a, wb])
            low = at_a.take(np.argsort(at_a[key], kind="stable")[:na_win])
            high = at_b.take(np.argsort(at_b[key], kind="stable")[na_win:])
            n_keep_a = current[a].n - na_win
            current[a] = ColumnBlock.concat(
                [current[a].take(np.arange(n_keep_a)), low]
            )
            current[b] = ColumnBlock.concat(
                [high, current[b].take(np.arange(nb_win, current[b].n))]
            )
            w = na_win + nb_win
            if w > 1:
                merge_cost[a] += kernels.SORT_STEP * w * np.log2(w)
                merge_cost[b] += kernels.SORT_STEP * w * np.log2(w)
        machine.compute(merge_cost, phase)

    if not verify:
        return current, True
    return current, _verify_sorted(machine, RankMajor.of(current).column(key), phase)


@dataclasses.dataclass(frozen=True)
class _ColumnSpec:
    dtype: np.dtype
    trailing: Tuple[int, ...]
    row_bytes: int


def _column_spec(arrays: Sequence[np.ndarray], index: int) -> _ColumnSpec:
    """Validate that one column's per-rank arrays agree on dtype/shape."""
    first = arrays[0]
    dtype = np.dtype(first.dtype)
    trailing = tuple(int(d) for d in first.shape[1:])
    for r, arr in enumerate(arrays):
        if np.dtype(arr.dtype) != dtype:
            raise ValueError(
                f"column {index}: rank {r} has dtype {arr.dtype}, rank 0 has {dtype}"
            )
        if tuple(int(d) for d in arr.shape[1:]) != trailing:
            raise ValueError(
                f"column {index}: rank {r} has trailing shape {arr.shape[1:]}, "
                f"rank 0 has {trailing}"
            )
    row_bytes = dtype.itemsize * int(np.prod(trailing, dtype=np.int64)) if trailing else dtype.itemsize
    if row_bytes <= 0:
        raise ValueError(f"column {index}: zero-size rows cannot be redistributed")
    return _ColumnSpec(dtype=dtype, trailing=trailing, row_bytes=row_bytes)


def _byte_rows(arr: np.ndarray, spec: _ColumnSpec) -> np.ndarray:
    """View one column's rows as a contiguous ``(n, row_bytes)`` uint8 matrix."""
    arr = np.ascontiguousarray(arr, dtype=spec.dtype)
    n = arr.shape[0]
    return arr.view(np.uint8).reshape(n, spec.row_bytes)


class ResortPlanLoop:
    """``ResortPlan`` as it was: per-source argsort and segment scan, a
    ``list[dict]`` of position payloads at compile time, per-rank byte-record
    packing and per-destination concat / scatter / split at execute time."""

    def __init__(
        self,
        machine: Machine,
        resort_indices: Sequence[np.ndarray],
        old_counts: Sequence[int],
        new_counts: Sequence[int],
        *,
        comm: str = "alltoall",
        phase: str = "resort",
    ) -> None:
        P = machine.nprocs
        if not (len(resort_indices) == len(old_counts) == len(new_counts) == P):
            raise ValueError("per-rank sequences must have one entry per rank")
        if comm not in COMM_KINDS:
            raise ValueError(f"comm must be one of {COMM_KINDS}, got {comm!r}")
        self.machine = machine
        self.comm = comm
        self.phase = phase
        self.old_counts = [int(c) for c in old_counts]
        self.new_counts = [int(c) for c in new_counts]
        self._indices: List[np.ndarray] = []
        #: stable per-source gather order grouping rows by target rank
        self._gather_order: List[np.ndarray] = []
        #: per-source list of (target, start, end) send segments over the
        #: gathered rows — the plan's cached alltoallv count table
        self._segments: List[List[Tuple[int, int, int]]] = []
        self.stats = ResortPlanStats()

        ranks_list: List[np.ndarray] = []
        pos_list: List[np.ndarray] = []
        for r in range(P):
            idx = np.asarray(resort_indices[r], dtype=np.int64)
            if idx.shape != (self.old_counts[r],):
                raise ValueError(
                    f"rank {r}: {idx.shape[0]} resort indices for "
                    f"{self.old_counts[r]} original particles"
                )
            if np.any(idx < 0):
                raise ValueError(
                    f"rank {r}: invalid (ghost) resort index cannot be planned"
                )
            ranks, positions = unpack_resort_index(idx)
            if idx.size and int(ranks.max()) >= P:
                raise ValueError(
                    f"rank {r}: target rank {int(ranks.max())} out of range [0, {P})"
                )
            self._indices.append(idx)
            ranks_list.append(ranks)
            pos_list.append(positions)

        with machine_span(machine, "resort_plan.compile", op="plan.compile", comm=comm):
            pos_sends = self._compile_schedules_reference(ranks_list, pos_list)

            if comm == "neighborhood":
                recv = neighborhood_alltoallv(machine, pos_sends, COMPILE_PHASE)
            else:
                recv = alltoallv(machine, pos_sends, COMPILE_PHASE)

            #: per-destination scatter permutation: ``out[p] = incoming[perm[p]]``
            self._scatter_perm: List[np.ndarray] = []
            for dst in range(P):
                parts = [payload for _src, payload in recv[dst]]
                incoming = (
                    np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
                )
                n = self.new_counts[dst]
                if incoming.shape[0] != n:
                    raise ValueError(
                        f"rank {dst}: {incoming.shape[0]} resort targets for "
                        f"{n} new-layout slots"
                    )
                self._scatter_perm.append(inverse_permutation(incoming, n, dst))
            # building the inverse permutations is a local 8-byte scatter per row
            machine.copy(
                8.0 * np.asarray(self.new_counts, dtype=np.float64), COMPILE_PHASE
            )

        self.stats.compiles += 1
        machine.count("resort_plan.compiles")

    def _compile_schedules_reference(
        self, ranks_list: List[np.ndarray], pos_list: List[np.ndarray]
    ) -> List[dict]:
        P = self.machine.nprocs
        pos_sends: List[dict] = []
        for r in range(P):
            ranks = ranks_list[r]
            positions = pos_list[r]
            order = np.argsort(ranks, kind="stable")
            sorted_ranks = ranks[order]
            sorted_pos = positions[order]
            segments: List[Tuple[int, int, int]] = []
            sends: dict = {}
            if order.size:
                bounds = np.flatnonzero(np.diff(sorted_ranks)) + 1
                starts = np.concatenate(([0], bounds))
                ends = np.concatenate((bounds, [sorted_ranks.size]))
                for s, e in zip(starts, ends):
                    dst = int(sorted_ranks[s])
                    segments.append((dst, int(s), int(e)))
                    sends[dst] = sorted_pos[s:e]
            self._gather_order.append(order)
            self._segments.append(segments)
            pos_sends.append(sends)
        return pos_sends

    def execute(
        self,
        columns: Sequence[Sequence[np.ndarray]],
        *,
        phase: Optional[str] = None,
    ) -> List[List[np.ndarray]]:
        machine = self.machine
        P = machine.nprocs
        phase = phase if phase is not None else self.phase
        if not columns:
            raise ValueError("at least one data column is required")
        cols = [list(col) for col in columns]
        for c, col in enumerate(cols):
            if len(col) != P:
                raise ValueError(
                    f"column {c}: {len(col)} per-rank arrays for {P} ranks"
                )
        specs = [_column_spec(col, c) for c, col in enumerate(cols)]
        record_bytes = sum(s.row_bytes for s in specs)
        with machine_span(
            machine, "resort_plan.execute", op="plan.execute",
            columns=len(cols), comm=self.comm,
        ):
            return self._execute_reference(cols, specs, record_bytes, phase)

    def _execute_reference(
        self,
        cols: List[List[np.ndarray]],
        specs: List[_ColumnSpec],
        record_bytes: int,
        phase: str,
    ) -> List[List[np.ndarray]]:
        machine = self.machine
        P = machine.nprocs

        # pack: byte-fuse the columns row-wise, gather by target, slice the
        # cached segments into one payload per destination
        sends: List[dict] = []
        pack_bytes = np.zeros(P, dtype=np.float64)
        for r in range(P):
            n = self.old_counts[r]
            views = []
            for c, col in enumerate(cols):
                arr = col[r]
                if arr.shape[0] != n:
                    raise ValueError(
                        f"column {c}, rank {r}: data has {arr.shape[0]} rows, "
                        f"original particle count was {n}"
                    )
                views.append(_byte_rows(arr, specs[c]))
            records = views[0] if len(views) == 1 else np.concatenate(views, axis=1)
            gathered = records[self._gather_order[r]]
            sends.append(
                {dst: gathered[s:e] for dst, s, e in self._segments[r]}
            )
            pack_bytes[r] = float(n) * record_bytes

        machine.copy(pack_bytes, phase)
        if self.comm == "neighborhood":
            recv = neighborhood_alltoallv(machine, sends, phase)
        else:
            # counts are part of the plan: skip the dense count exchange
            recv = alltoallv(machine, sends, phase, count_exchange="cached")

        # unpack: concatenate source-ordered payloads, scatter into target
        # positions, split the byte records back into typed columns
        out: List[List[np.ndarray]] = [[] for _ in cols]
        unpack_bytes = np.zeros(P, dtype=np.float64)
        for dst in range(P):
            n = self.new_counts[dst]
            parts = [payload for _src, payload in recv[dst]]
            incoming = (
                np.concatenate(parts)
                if parts
                else np.empty((0, record_bytes), dtype=np.uint8)
            )
            if incoming.shape[0] != n:
                raise ValueError(
                    f"rank {dst}: received {incoming.shape[0]} rows, expected {n}"
                )
            ordered = incoming[self._scatter_perm[dst]]
            offset = 0
            for c, spec in enumerate(specs):
                chunk = np.ascontiguousarray(
                    ordered[:, offset : offset + spec.row_bytes]
                )
                out[c].append(
                    chunk.view(spec.dtype).reshape((n,) + spec.trailing)
                )
                offset += spec.row_bytes
            unpack_bytes[dst] = float(n) * record_bytes
        machine.copy(unpack_bytes, phase)

        inter = [
            e - s for r in range(P) for dst, s, e in self._segments[r] if dst != r
        ]
        self._count_execution(
            phase, len(cols), len(inter), int(sum(inter)) * record_bytes
        )
        return out

    def _count_execution(
        self, phase: str, ncols: int, messages: int, moved: int
    ) -> None:
        machine = self.machine
        self.stats.executions += 1
        self.stats.fused_columns += ncols
        self.stats.bytes_moved += moved
        machine.count("resort_plan.executions")
        machine.count("resort_plan.fused_columns", ncols)
        machine.count("resort_plan.bytes_moved", moved)
        if machine.auditor is not None:
            machine.auditor.observe_plan_execution(phase, messages, moved)


# ------------------------------------ delivered, then put in place (two copies)
#
# The bodies ``deliver_to_slots``, ``ResortPlan.__init__``/``execute`` and
# ``partition_sort`` had while they delivered every row in receive order
# through the transport and then moved it again into its slot (the partition
# sort: gathered by the local sort, delivered, then merged by a third
# gather).  Moved verbatim; production now charges the same exchange from
# its message counts and gathers every column once, straight into place.


def deliver_to_slots_delivered(
    machine: Machine,
    rows: RankMajor,
    index: str,
    counts: Sequence[int],
    phase: Optional[str],
    comm: str,
    count_error: Callable[[int, int, int], Exception],
) -> ColumnBlock:
    """Send each row of the rank-major block ``rows`` to the ``(rank,
    position)`` packed in its ``index`` column and store it there: one
    fine-grained redistribution followed by the local permutation, for all
    ranks at once.

    Returns the other columns as one block over the slots of all ranks
    (rank ``r`` owns ``counts[r]`` rows from row ``sum(counts[:r])`` on).
    A ghost index, a target that is not a rank, a rank sent more or fewer
    rows than it has slots (``count_error``) or a slot named twice raise
    before anything is exchanged or charged.
    """
    ranks, positions = unpack_resort_index(rows.data[index])
    route = exchange_route(rows.offsets, np.arange(ranks.shape[0], dtype=np.int64), ranks)
    check_target_slots(ranks, positions, counts, count_error)
    received = redistribute_flat(machine, rows.data, route, phase, comm)
    delivered, recv_offsets = received.data, received.offsets
    # every receiver reads the slot off the index value it was sent
    ranks, positions = unpack_resort_index(delivered[index])
    place = np.empty(delivered.n, dtype=np.int64)
    place[recv_offsets[ranks] + positions] = np.arange(delivered.n, dtype=np.int64)
    return delivered.drop(index).take(place)


class ResortPlanDelivered(ResortPlan):
    """``ResortPlan`` whose compile delivered the target positions along the
    listed route and whose executions delivered every column in receive
    order before one gather per column put it in place."""

    def __init__(
        self,
        machine: Machine,
        resort_indices: Sequence[np.ndarray],
        old_counts: Sequence[int],
        new_counts: Sequence[int],
        *,
        comm: str = "alltoall",
        phase: str = "resort",
    ) -> None:
        P = machine.nprocs
        if not (len(resort_indices) == len(old_counts) == len(new_counts) == P):
            raise ValueError("per-rank sequences must have one entry per rank")
        if comm not in COMM_KINDS:
            raise ValueError(f"comm must be one of {COMM_KINDS}, got {comm!r}")
        self.machine = machine
        self.comm = comm
        self.phase = phase
        self.old_counts = [int(c) for c in old_counts]
        self.new_counts = [int(c) for c in new_counts]
        self.stats = ResortPlanStats()

        resort_indices = RankMajor.of(resort_indices)
        #: the plan's key: the resort indices, rank-major
        self._indices = np.asarray(resort_indices.data, dtype=np.int64)
        self._old_offsets = np.concatenate(([0], np.cumsum(self.old_counts, dtype=np.int64)))
        r = resort_indices.first_ragged(self._old_offsets)
        if r is not None:
            raise ValueError(
                f"rank {r}: {int(resort_indices.counts[r])} resort indices for "
                f"{self.old_counts[r]} original particles"
            )
        idx = self._indices
        bad = np.flatnonzero((idx < 0) | (idx >> RESORT_POS_BITS >= P))
        if bad.size:
            r = int(np.searchsorted(self._old_offsets, bad[0], side="right")) - 1
            mine = idx[self._old_offsets[r]:self._old_offsets[r + 1]]
            if np.any(mine < 0):
                raise ValueError(f"rank {r}: invalid (ghost) resort index cannot be planned")
            raise ValueError(
                f"rank {r}: target rank {int(mine.max() >> RESORT_POS_BITS)} "
                f"out of range [0, {P})"
            )
        ranks, positions = unpack_resort_index(idx)
        check_target_slots(
            ranks, positions, self.new_counts,
            lambda dst, sent, n: ValueError(
                f"rank {dst}: {sent} resort targets for {n} new-layout slots"
            ),
        )
        total = ranks.shape[0]
        #: the stored schedule: every row's message, without column buffers
        self._route = exchange_route(self._old_offsets, np.arange(total, dtype=np.int64), ranks)
        inter = self._route.msg_src != self._route.msg_dst
        self._inter_messages = int(inter.sum())
        self._moved_rows = int(np.diff(self._route.row_ptr)[inter].sum())
        self._new_offsets = np.concatenate(([0], np.cumsum(self.new_counts, dtype=np.int64)))

        with machine_span(machine, "resort_plan.compile", op="plan.compile", comm=comm):
            # schedule distribution: the one-off exchange that tells every
            # destination which incoming row lands where.  This is the only
            # time index data travels; executions ship pure payload.
            transport = neighborhood_alltoallv if comm == "neighborhood" else alltoallv
            (arrived,), recv_offsets = transport(
                machine, dataclasses.replace(self._route, columns=(positions,)), COMPILE_PHASE
            )
            slots = np.repeat(recv_offsets[:-1], np.diff(recv_offsets)) + arrived
            #: placement permutation: ``out[p] = arrived[place[p]]``
            self._place = np.empty(total, dtype=np.int64)
            self._place[slots] = np.arange(total, dtype=np.int64)
            # building the inverse permutation is a local 8-byte scatter per row
            machine.copy(
                8.0 * np.asarray(self.new_counts, dtype=np.float64), COMPILE_PHASE
            )

        self.stats.compiles += 1
        machine.count("resort_plan.compiles")

    def execute(
        self,
        columns: Sequence[Union[RankMajor, Sequence[np.ndarray]]],
        *,
        phase: Optional[str] = None,
    ) -> List[RankMajor]:
        """Redistribute data columns in one fused exchange.

        Parameters
        ----------
        columns:
            each column rank-major (a :class:`RankMajor` array) in the
            *original* order and distribution, or as one array per rank
            (``columns[c][r]``, concatenated once, here); columns may mix
            dtypes and trailing shapes (``(n,)``, ``(n, k)``, ...), but each
            column must be consistent across ranks and row counts must equal
            the plan's original counts.  Malformed columns raise before
            anything is exchanged or charged.

        Returns
        -------
        The columns in the changed order and distribution, same dtypes as
        the input: one :class:`RankMajor` array per column, each its own
        buffer cut by the new counts.
        """
        machine = self.machine
        phase = phase if phase is not None else self.phase
        if not columns:
            raise ValueError("at least one data column is required")
        flat = [_flat_column(col, c, self._old_offsets) for c, col in enumerate(columns)]
        with machine_span(
            machine, "resort_plan.execute", op="plan.execute",
            columns=len(flat), comm=self.comm,
        ):
            exchange = dataclasses.replace(self._route, columns=tuple(flat))
            row_bytes = exchange.row_nbytes
            machine.copy(np.asarray(self.old_counts, dtype=np.float64) * row_bytes, phase)
            if self.comm == "neighborhood":
                transport = neighborhood_alltoallv
            else:
                # counts are part of the plan: skip the dense count exchange
                transport = functools.partial(alltoallv, count_exchange="cached")
            arrived, _ = transport(machine, exchange, phase)
            out = [
                RankMajor(np.take(col, self._place, axis=0), self._new_offsets)
                for col in arrived
            ]
            machine.copy(np.asarray(self.new_counts, dtype=np.float64) * row_bytes, phase)
            self._count_execution(
                phase, len(flat), self._inter_messages, self._moved_rows * row_bytes
            )
        return out


def partition_sort_delivered(
    machine: Machine,
    blocks: Union[RankMajor, Sequence[ColumnBlock]],
    key: str,
    phase: Optional[str] = None,
    *,
    target_counts: Optional[Sequence[int]] = None,
    oversampling: int = 32,
    presorted: bool = False,
    balance_key: Optional[str] = None,
) -> RankMajor:
    """Globally sort distributed rows by ``key`` into exact part sizes.

    ``blocks`` holds the rows of all ranks, rank-major (one block per rank
    is concatenated once, here).  The partitioning algorithm [12] produces
    parts of *specified* sizes: ``target_counts`` defaults to the current
    per-rank counts, matching the ScaFaCoS FMM which "performs no further
    load balancing" — with a single-process initial distribution the sorted
    particles therefore stay on that process and the solver computes
    sequentially (Fig. 6).  Pass balanced counts to rebalance instead.

    Alternatively pass ``balance_key`` naming a per-element work-weight
    column: the part boundaries are then chosen to equalize *cumulative
    work* along the sorted key order (weighted space-filling-curve
    partitioning) instead of honoring externally fixed counts — the
    load-balanced mode of :mod:`repro.core.balance`.  Mutually exclusive
    with ``target_counts``.

    Returns the rows rank-major again: locally sorted, globally partitioned
    (all keys on rank ``i`` <= all keys on rank ``j`` for ``i < j``) with
    exactly ``target_counts[i]`` elements on rank ``i``.

    Cost model: local sorts, the splitter agreement (sample allgather plus
    a bounded number of exact-partition refinement rounds, as in [12]),
    one collective all-to-all for the payload, and the local multi-way
    merges.  The data plane computes the exact partition directly.
    """
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    if balance_key is not None and target_counts is not None:
        raise ValueError("pass either balance_key or target_counts, not both")
    P = machine.nprocs
    current = RankMajor.of(blocks) if presorted else local_sort(machine, blocks, key, phase)
    if balance_key is None:
        if target_counts is None:
            target_counts = current.counts
        else:
            target_counts = np.asarray([int(c) for c in target_counts], dtype=np.int64)
            total = current.data.n
            if target_counts.sum() != total:
                raise ValueError(
                    f"target_counts sum {int(target_counts.sum())} != total elements {total}"
                )
    if P == 1:
        return current

    # communication of the splitter agreement: one sample allgather plus an
    # exact-partitioning refinement round of scalar reductions [12]
    select_splitters(
        machine,
        current.column(key),
        oversampling,
        phase,
        weights=None if balance_key is None else current.column(balance_key),
    )
    machine.collective(
        machine.model.tree_collective_time(P, 16.0, machine.topology.diameter()),
        phase,
        messages=2 * (P - 1),
    )

    # data plane: exact global partition at the prefix boundaries of
    # target_counts, ties broken by (rank, position) so the split is stable
    order = stable_order(current.data[key])  # stable = (rank, pos) tie order
    order = np.arange(current.data.n) if order is None else order
    if balance_key is not None:
        bounds = work_split_bounds(current.data[balance_key][order], P)
    else:
        bounds = np.concatenate(([0], np.cumsum(target_counts)))
    dest = partition_destinations(order, bounds)
    received = fine_grained_redistribute(machine, current, dest, phase)

    # every destination merges one sorted run per source that sent it rows:
    # count the distinct (source, destination) pairs, which change rarely
    # along the locally sorted rows
    pair = np.repeat(np.arange(P, dtype=np.int64) * P, current.counts) + dest
    pair = pair[np.diff(pair, prepend=-1) != 0]
    runs = np.bincount(np.unique(pair) % P, minlength=P)
    merged = sorted_within_ranks(received, key)
    # k-way merge of sorted runs: n log k
    n = received.counts
    merge_cost = np.zeros(P, dtype=np.float64)
    many = n > 1
    merge_cost[many] = kernels.SORT_STEP * n[many] * np.log2(np.maximum(runs[many], 2))
    machine.compute(merge_cost, phase)
    return RankMajor(merged, received.offsets)
