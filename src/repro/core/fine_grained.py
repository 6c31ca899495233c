"""Fine-grained data redistribution (the ZMPI-ATASP analogue, [13,14]).

The operation sends **every particle to an individually computed target
process** using an all-to-all communication, optionally duplicating
particles (ghost particles are "created automatically during the particle
data redistribution step", Sect. II-C).  A user-defined *distribution
function* specifies the target process(es) for each local particle; the
generalized version used by the P2NFFT solver supports duplication by
returning multiple (element, target) pairs per particle.

Data plane: one rank-major :class:`~repro.core.particles.RankMajor` block
in (per-rank blocks handed in by a caller are concatenated once, at entry);
all (element, target) pairs of all ranks are sorted once by ``(source,
target)`` into a *route* (:func:`exchange_route`; a producer that sorts its
own pairs in route order — the grid placement, the FMM halo — hands them to
its tail, :func:`sorted_route`), and the whole exchange
goes to :func:`~repro.simmpi.collectives.alltoallv` (or the neighborhood
variant) as one :class:`~repro.simmpi.collectives.Exchange`; the one
delivered buffer and its receive offsets out, again as a ``RankMajor``.
Every redistribution of the repo is this operation:
this module is the only place outside :mod:`repro.simmpi` that builds an
``Exchange`` — the parallel sort's all-to-all, the resort-index scatters
(:mod:`repro.core.resort`, :mod:`repro.core.restore`) and the stored
schedule of a :class:`~repro.core.plan.ResortPlan` are callers.  Those three
know every row's slot first: they charge a :func:`counted_route` and gather
the rows into place themselves.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.particles import ColumnBlock, RankMajor
from repro.simmpi.collectives import Exchange, alltoallv, neighborhood_alltoallv
from repro.simmpi.machine import Machine

__all__ = [
    "COMM_KINDS",
    "DistResult",
    "counted_route",
    "exchange_route",
    "fine_grained_redistribute",
    "pair_key_bits",
    "redistribute_flat",
    "send_route",
    "sorted_route",
    "stable_order",
]

#: the structured communication strategies of a redistribution exchange (what
#: a :class:`~repro.solvers.base.RunReport` and a
#: :class:`~repro.core.plan.ResortPlan` carry): the general collective, or
#: point-to-point communication with known bounded-distance peers
COMM_KINDS = ("alltoall", "neighborhood")

#: A distribution is either a plain per-element target-rank array of shape
#: ``(n,)`` (no duplication), or a pair ``(element_indices, target_ranks)``
#: of equal-length arrays where repeated element indices create duplicates
#: (ghost particles).
DistResult = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]
DistFn = Callable[[int, ColumnBlock], DistResult]


def _normalize(n: int, result: DistResult) -> Tuple[np.ndarray, np.ndarray]:
    """Canonicalize a distribution over ``n`` elements to (elem_idx, targets)."""
    if isinstance(result, tuple):
        elem_idx, targets = result
        elem_idx = np.asarray(elem_idx, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if elem_idx.shape != targets.shape or elem_idx.ndim != 1:
            raise ValueError(
                f"duplicating distribution must return equal 1-D arrays, got "
                f"{elem_idx.shape} and {targets.shape}"
            )
        if elem_idx.size and (elem_idx.min() < 0 or elem_idx.max() >= n):
            raise ValueError("element indices out of range")
        return elem_idx, targets
    targets = np.asarray(result, dtype=np.int64)
    if targets.shape != (n,):
        raise ValueError(
            f"distribution function must return shape ({n},), got {targets.shape}"
        )
    return np.arange(n, dtype=np.int64), targets


def stable_order(key: np.ndarray) -> Optional[np.ndarray]:
    """The permutation that sorts ``key`` (NaN-free) stably, or ``None``
    when one comparison pass finds it in order (the method-B steady state).

    Each integer key's offset from the smallest goes into the high bits of
    a ``uint64``, its position into the low bits, and the packed *values*
    are sorted: distinct values, so any sort is the stable one, at a
    fraction of the cost of a stable ``argsort``.  Keys that are not
    integers, or too wide to leave room for the positions in 64 bits, take
    the stable ``argsort`` on their own dtype.
    """
    if not np.any(key[1:] < key[:-1]):
        return None
    bits = (key.shape[0] - 1).bit_length()
    lo = int(key.min()) if key.dtype.kind in "iu" else None
    if lo is None or (int(key.max()) - lo).bit_length() + bits > 64:
        return np.argsort(key, kind="stable")
    packed = key.astype(np.uint64)
    packed -= np.uint64(lo % (1 << 64))  # wraps negative keys into order
    packed <<= np.uint64(bits)
    packed |= np.arange(key.shape[0], dtype=np.uint64)
    packed.sort()
    packed &= np.uint64((1 << bits) - 1)
    return packed.view(np.int64)


def exchange_route(row_offsets: np.ndarray, elements: np.ndarray, targets: np.ndarray) -> Exchange:
    """The route of a redistribution: an :class:`Exchange` without columns.

    ``row_offsets`` are the ``P + 1`` prefix sums of the per-rank row
    counts, so global row ``elements[i]`` (a valid row) lives on the rank
    whose range holds it and travels to rank ``targets[i]``.  All pairs are
    ordered once, stably, by ``(source, target)``: equal keys are one
    message, in the order the pairs were listed.  Binding column buffers
    over the same rows (``dataclasses.replace(route, columns=...)``) makes
    it an exchange; a route may be kept and bound any number of times.
    Pairs listed in order already travel as listed: the route then holds
    ``elements`` itself, not a copy.

    Raises before anything can be charged when a target is not a rank.
    """
    P = row_offsets.shape[0] - 1
    rank_of_row = np.repeat(np.arange(P, dtype=np.int64), np.diff(row_offsets))
    sources = np.take(rank_of_row, elements)
    if targets.size and (targets.min() < 0 or targets.max() >= P):
        bad = (targets < 0) | (targets >= P)
        raise ValueError(f"rank {int(sources[bad].min())}: target ranks out of range")
    key = sources
    key *= P
    key += targets
    order = stable_order(key)
    if order is not None:
        key = key[order]
        elements = elements[order]
    return sorted_route(key, P, elements)


def counted_route(row_offsets: np.ndarray, targets: np.ndarray) -> Exchange:
    """:func:`exchange_route` of every rank-major row ``i`` to rank
    ``targets[i]``, charged by count: the same messages, each carrying its
    row count as :attr:`~repro.simmpi.collectives.Exchange.sent`, and no row
    listed, so it delivers nothing — for callers that know every row's slot
    and gather the rows there themselves (:func:`send_route` charges it).
    Built from the sorted ``(source, target)`` keys alone."""
    P = row_offsets.shape[0] - 1
    if targets.size and (targets.min() < 0 or targets.max() >= P):
        first_bad = np.flatnonzero((targets < 0) | (targets >= P))[0]
        rank = np.searchsorted(row_offsets, first_bad, side="right") - 1
        raise ValueError(f"rank {rank}: target ranks out of range")
    key = np.repeat(np.arange(0, P * P, P, dtype=np.int64), np.diff(row_offsets))
    key += targets
    if np.any(key[1:] < key[:-1]):
        key.sort()
    route = sorted_route(key, P, key[:0])
    return dataclasses.replace(
        route, row_ptr=np.zeros_like(route.row_ptr), sent=np.diff(route.row_ptr)
    )


def send_route(
    machine: Machine, route: Exchange, block: ColumnBlock, phase: Optional[str], comm: str
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Bind the columns of the rank-major ``block`` to ``route`` (built over
    the same rows) and hand the exchange to the collective ``comm`` names:
    its ``(columns, recv_offsets)``.  A :func:`counted_route` is charged and
    delivers nothing.

    An unknown ``comm`` raises before anything is exchanged or charged.
    """
    if comm not in COMM_KINDS:
        raise ValueError(f"comm must be one of {COMM_KINDS}, got {comm!r}")
    transport = alltoallv if comm == "alltoall" else neighborhood_alltoallv
    return transport(machine, dataclasses.replace(route, columns=block.payload()), phase)


def sorted_route(
    key: np.ndarray,
    base: int,
    row_index: np.ndarray,
    rows: Optional[np.ndarray] = None,
    sent: Optional[np.ndarray] = None,
    listed: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Exchange:
    """The route of pairs listed in route order already: the tail of
    :func:`exchange_route`, and what a producer that sorts its own pairs
    builds its route with.

    ``key`` is ``src * base + dst`` per pair, non-decreasing (``base`` at
    least the rank count); equal keys are one message.  ``rows`` is the
    number of consecutive ``row_index`` rows each pair stands for (``None``:
    one).  ``sent``, when given, is the number of rows each pair is charged
    as carrying, listed or not: a message is charged their sum
    (:attr:`~repro.simmpi.collectives.Exchange.sent`) and delivers only the
    rows it lists.  ``listed``, given instead of ``rows`` by a producer most
    of whose pairs are charged alone, is ``(keys, counts)`` per message: the
    messages of these keys (ascending, each one of ``key``) list that many
    consecutive rows, every other message none.  ``row_index`` is kept, not
    copied.
    """
    first = np.ones(key.shape[0], dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    msg_key = key[starts]
    row_ptr = np.append(starts, key.shape[0])
    if listed is not None:
        at_keys, counts = listed
        rows = np.zeros(starts.shape[0], dtype=np.int64)
        rows[np.searchsorted(msg_key, at_keys)] = counts
        row_ptr = np.concatenate(([0], np.cumsum(rows)))
    elif rows is not None:
        row_ptr = np.concatenate(([0], np.cumsum(rows)))[row_ptr]
    if sent is not None:
        sent = np.add.reduceat(sent, starts)
    return Exchange(
        columns=(),
        row_index=row_index,
        msg_src=msg_key // base,
        msg_dst=msg_key % base,
        row_ptr=row_ptr,
        sent=sent,
    )


def pair_key_bits(nprocs: int, n: int) -> Tuple[int, int]:
    """``(rank bits, item bits)`` of a packed ``(source, target, item)`` key
    over ``n`` items on ``nprocs`` ranks: ``bits(P − 1)`` and
    ``bits(n − 1)``.  Two rank fields and the item field must fit the 63
    value bits of an int64; a key that would not raises ``ValueError``
    naming P and n."""
    rank_bits, item_bits = (nprocs - 1).bit_length(), max(n - 1, 0).bit_length()
    if 2 * rank_bits + item_bits > 63:
        raise ValueError(
            f"a route over {n} rows on {nprocs} ranks needs a "
            f"{2 * rank_bits + item_bits}-bit (source, target, row) key; at most 63 bits fit"
        )
    return rank_bits, item_bits


def _route_of(blocks: RankMajor, distribution: Union[DistFn, DistResult]) -> Exchange:
    """Either distribution form as a route over the rank-major rows (a
    function of its own so that the pair-sized work arrays are gone before
    the rows travel)."""
    offsets = blocks.offsets
    if callable(distribution):
        # the per-rank form: shift every rank's pairs to global row numbers
        pairs = [
            _normalize(block.n, distribution(rank, block)) for rank, block in enumerate(blocks)
        ]
        elements = np.concatenate([e + offsets[rank] for rank, (e, _t) in enumerate(pairs)])
        targets = np.concatenate([t for _e, t in pairs])
    else:
        elements, targets = _normalize(int(offsets[-1]), distribution)
    return exchange_route(offsets, elements, targets)


def redistribute_flat(
    machine: Machine,
    block: ColumnBlock,
    route: Exchange,
    phase: Optional[str],
    comm: str,
) -> RankMajor:
    """Ship the rows of the rank-major ``block`` along ``route``
    (:func:`send_route`): one block holding what every rank received, cut by
    the receive offsets, in source rank order and, within one source, route
    order.  The route gathers from ``block`` into fresh buffers: the caller's
    columns are read, never kept."""
    columns, recv_offsets = send_route(machine, route, block, phase, comm)
    return RankMajor(ColumnBlock(**dict(zip(block.names(), columns))), recv_offsets)


def fine_grained_redistribute(
    machine: Machine,
    blocks: Union[RankMajor, Sequence[ColumnBlock]],
    distribution: Union[DistFn, DistResult],
    phase: Optional[str] = None,
    *,
    comm: str = "alltoall",
) -> RankMajor:
    """Redistribute rank-major rows according to a distribution.

    Parameters
    ----------
    blocks:
        the rows of all ranks as one :class:`RankMajor` block; one
        :class:`ColumnBlock` per rank (identical column sets, dtypes and
        trailing shapes) is concatenated once, here.
    distribution:
        either the *global* distribution, a :data:`DistResult` over the rows
        of all ranks in rank order (element ``i`` of rank ``r`` is row
        ``offsets[r] + i``), or a distribution function called as
        ``distribution(rank, block)`` on every rank's view and returning the
        rank's :data:`DistResult` over its own rows.  Targets must be valid
        ranks.  ``(elem_idx, targets)`` with repeated ``elem_idx`` duplicates
        particles (ghosts); elements whose index never appears are dropped
        (ghost removal works the same way).
    comm:
        ``"alltoall"`` uses the general collective with a dense count
        exchange; ``"neighborhood"`` models pre-posted point-to-point
        communication with known peers (Sect. III-B) — the caller guarantees
        targets are bounded-distance neighbors.

    Returns
    -------
    What every rank received, rank-major in one delivered buffer: the rows
    in source rank order, and within one source in the order its (element,
    target) pairs were listed — the ordering contract the resort indices
    rely on.

    A rejected call (mismatched columns, bad element index or target rank)
    raises before anything is exchanged or charged.
    """
    P = machine.nprocs
    if len(blocks) != P:
        raise ValueError(f"{len(blocks)} blocks for {P} ranks")
    blocks = RankMajor.of(blocks)
    return redistribute_flat(machine, blocks.data, _route_of(blocks, distribution), phase, comm)
