"""Partition-based parallel sorting [12] (sample sort with regular sampling).

Used by the FMM solver to place arbitrarily disordered particles into their
Z-Morton boxes: each rank sorts locally, contributes regularly spaced key
samples, all ranks agree on ``P-1`` splitter keys, partition their local
data and exchange the partitions with one collective all-to-all (the
fine-grained redistribution of :mod:`repro.core.fine_grained`).  A final
local multi-way merge of what each rank received restores local order.

Compared to the merge-based method this always moves the full data volume
and uses collective all-to-all communication — cheap for disordered input,
wasteful for almost-sorted input; the FMM's max-movement heuristic
(:func:`repro.core.movement.fmm_prefers_merge_sort`) switches between the
two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import kernels
from repro.core.balance import work_split_bounds
from repro.core.fine_grained import counted_route, send_route, stable_order
from repro.core.particles import ColumnBlock, RankMajor
from repro.simmpi.collectives import allgatherv
from repro.simmpi.machine import Machine
from repro.sorting.merge_sort import charge_local_sort, order_within_ranks

__all__ = [
    "partition_sort",
    "select_splitters",
    "partition_destinations",
    "split_by_destination",
]


def select_splitters(
    machine: Machine,
    sorted_keys: Sequence[np.ndarray],
    oversampling: int = 16,
    phase: Optional[str] = None,
    *,
    weights: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Agree on ``P-1`` global splitter keys by regular sampling.

    Each rank contributes up to ``oversampling`` regularly spaced keys from
    its locally sorted run; the gathered sample is sorted everywhere and
    regular positions become the splitters.  With regular sampling the
    resulting partition sizes are bounded by roughly ``2 n / P``.

    With per-element work ``weights`` (one array per rank, aligned with
    ``sorted_keys``) the sampling and the splitter positions both move from
    element counts to *cumulative work*: each rank samples at regular work
    quantiles of its local run, the sampled weights ride the gather, and
    splitters land at regular work quantiles of the key-sorted sample — so
    the agreed partition equalizes estimated work instead of counts.
    ``weights=None`` is bitwise-identical to the historical count-based
    behavior (same samples, same single allgather, same charge).
    """
    P = machine.nprocs
    samples: List[np.ndarray] = []
    wsamples: List[np.ndarray] = []
    for r, keys in enumerate(sorted_keys):
        n = keys.shape[0]
        if n == 0:
            samples.append(np.empty(0, dtype=np.uint64))
            wsamples.append(np.empty(0, dtype=np.float64))
            continue
        s = min(oversampling, n)
        if weights is None:
            pos = ((np.arange(s, dtype=np.float64) + 0.5) * n / s).astype(np.int64)
        else:
            w = np.asarray(weights[r], dtype=np.float64)
            if w.shape[0] != n:
                raise ValueError(
                    f"rank {r}: {w.shape[0]} weights for {n} keys"
                )
            cumw = np.cumsum(w)
            total = float(cumw[-1])
            if total <= 0.0:
                pos = ((np.arange(s, dtype=np.float64) + 0.5) * n / s).astype(np.int64)
            else:
                targets = (np.arange(s, dtype=np.float64) + 0.5) * (total / s)
                pos = np.minimum(
                    np.searchsorted(cumw, targets, side="right"), n - 1
                ).astype(np.int64)
            wsamples.append(np.ascontiguousarray(w[pos]))
        samples.append(np.ascontiguousarray(keys[pos]))
    gathered = allgatherv(machine, samples, phase)[0]
    if weights is not None:
        gathered_w = allgatherv(machine, wsamples, phase)[0]
        sorder = stable_order(gathered)
        if sorder is not None:
            gathered, gathered_w = gathered[sorder], gathered_w[sorder]
    else:
        gathered = np.sort(gathered)
    if gathered.size == 0 or P == 1:
        return np.empty(0, dtype=np.uint64)
    if weights is not None:
        pos = work_split_bounds(gathered_w, P)[1:P]
        pos = np.minimum(pos, gathered.size - 1)
    else:
        pos = ((np.arange(1, P, dtype=np.float64)) * gathered.size / P).astype(np.int64)
    # sorting the gathered sample is a bare key sort, not a record sort
    machine.compute(
        np.full(
            P,
            kernels.KEY_SORT_STEP * gathered.size * max(1.0, np.log2(max(gathered.size, 2))),
        ),
        phase,
    )
    return gathered[pos].astype(np.uint64)


def partition_destinations(order: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Destination rank of each element given the global sort ``order`` and
    the part boundaries ``bounds`` (prefix sums of the target counts).

    One scatter of a :func:`np.repeat` run replaces a per-destination
    slice-assignment loop (the scalar oracle in ``tests/kernel_oracles.py``);
    both produce bitwise-identical destination arrays.
    """
    dest = np.empty(order.shape[0], dtype=np.int64)
    dest[order] = np.repeat(
        np.arange(bounds.shape[0] - 1, dtype=np.int64), np.diff(bounds)
    )
    return dest


def split_by_destination(block: ColumnBlock, d: np.ndarray) -> Dict[int, ColumnBlock]:
    """Split ``block`` into per-destination sub-blocks, keyed by destination
    in ascending order.

    A single stable sort of the destination array yields every
    destination's element indices as a contiguous run (in original order,
    because the sort is stable), replacing per-destination ``d == dst``
    scans (the scalar oracle in ``tests/kernel_oracles.py``).  Both return
    identical dicts: same key order, bitwise-equal columns.
    """
    out: Dict[int, ColumnBlock] = {}
    if not block.n:
        return out
    sorder = stable_order(d)
    sorder = np.arange(d.shape[0]) if sorder is None else sorder
    dsorted = d[sorder]
    targets, first = np.unique(dsorted, return_index=True)
    last = np.concatenate((first[1:], [dsorted.shape[0]]))
    for j, dst in enumerate(targets):
        out[int(dst)] = block.take(sorder[first[j]:last[j]])
    return out


def partition_sort(
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
    merges.  The data plane computes the exact partition directly: the
    all-to-all is charged from its message counts, and every column is
    gathered once, by the local order composed with the global one.
    """
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    if balance_key is not None and target_counts is not None:
        raise ValueError("pass either balance_key or target_counts, not both")
    P = machine.nprocs
    blocks = RankMajor.of(blocks)
    keys, offsets = blocks.data[key], blocks.offsets
    local = None if presorted else order_within_ranks(keys, offsets)
    if not presorted:
        charge_local_sort(machine, RankMajor(keys, offsets), phase)
    if balance_key is None:
        if target_counts is None:
            target_counts = blocks.counts
        else:
            target_counts = np.asarray([int(c) for c in target_counts], dtype=np.int64)
            total = blocks.data.n
            if target_counts.sum() != total:
                raise ValueError(
                    f"target_counts sum {int(target_counts.sum())} != total elements {total}"
                )
    if P == 1:
        if local is not None:
            return RankMajor(blocks.data.take(local), offsets)
        return blocks if presorted else RankMajor(blocks.data.copy(), offsets)

    weights = None if balance_key is None else blocks.data[balance_key]
    if local is not None:  # splitters and bounds read the locally sorted keys and weights
        keys, weights = keys[local], None if weights is None else weights[local]

    # communication of the splitter agreement: one sample allgather plus an
    # exact-partitioning refinement round of scalar reductions [12]
    select_splitters(
        machine,
        RankMajor(keys, offsets),
        oversampling,
        phase,
        weights=None if weights is None else RankMajor(weights, offsets),
    )
    machine.collective(
        machine.model.tree_collective_time(P, 16.0, machine.topology.diameter()),
        phase,
        messages=2 * (P - 1),
    )

    # data plane: exact global partition at the prefix boundaries of
    # target_counts, ties broken by (rank, position) so the split is stable
    order = stable_order(keys)  # stable = (rank, pos) tie order
    order = np.arange(keys.shape[0]) if order is None else order
    if balance_key is not None:
        bounds = work_split_bounds(weights[order], P)
    else:
        bounds = np.concatenate(([0], np.cumsum(target_counts)))
    dest = partition_destinations(order, bounds)
    # the locally sorted rows go out in order, so their keys need no sort
    route = counted_route(offsets, dest)
    send_route(machine, route, blocks.data, phase, "alltoall")
    merged = blocks.data.take(order if local is None else local[order])

    # every destination merges one sorted run per source that sent it rows:
    # one per (source, destination) message; k-way merge of sorted runs: n log k
    runs = np.bincount(route.msg_dst, minlength=P)
    n = np.diff(bounds)
    merge_cost = np.zeros(P, dtype=np.float64)
    many = n > 1
    merge_cost[many] = kernels.SORT_STEP * n[many] * np.log2(np.maximum(runs[many], 2))
    machine.compute(merge_cost, phase)
    return RankMajor(merged, bounds)
