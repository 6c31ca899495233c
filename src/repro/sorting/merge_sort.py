"""Merge-based parallel sorting [15] on Batcher's merge-exchange network.

Each rank holds one locally sorted run; the network's comparator rounds are
executed as pairwise point-to-point merge steps (``MPI_Sendrecv``-style
exchanges, no collectives).  A comparator ``(a, b)`` establishes the
invariant "every key on rank *a* <= every key on rank *b*" while keeping the
per-rank element counts unchanged.

The crucial property for the paper's method B: before data moves, the pair
exchanges a constant-size control message (count, min key, max key).  If the
runs are already ordered — the common case when particles moved only
slightly since the previous time step — *no particle data is exchanged at
all*.  Otherwise only the overlap window ``[b.min, a.max]`` travels, which
for almost-sorted data is a small fraction of the particles.  This is why
"sorting the particles in this case causes that a majority of the particles
stays on its current process" translates into tiny redistribution times
(Fig. 7/8).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.particles import ColumnBlock
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import exchange_pairs
from repro.sorting.batcher import merge_exchange_rounds

__all__ = ["merge_exchange_sort", "local_sort"]


def local_sort(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
) -> List[ColumnBlock]:
    """Stable per-rank sort of every block by its ``key`` column."""
    out: List[ColumnBlock] = []
    cost = np.zeros(machine.nprocs, dtype=np.float64)
    for r, block in enumerate(blocks):
        keys = block[key]
        order = np.argsort(keys, kind="stable")
        out.append(block.take(order))
        n = keys.shape[0]
        if n > 1:
            # adaptive (timsort-like) cost: nearly sorted runs cost a single
            # pass, disordered data the full n log n — this is what makes
            # method B's steady-state local sorts cheap
            disorder = float(np.count_nonzero(keys[1:] < keys[:-1])) / (n - 1)
            cost[r] = kernels.SORT_STEP * n * (1.0 + disorder * np.log2(n))
    machine.compute(cost, phase)
    return out


def _control_payload(block: ColumnBlock, key: str) -> np.ndarray:
    """(count, min key, max key) as a 3-element array (24-byte message)."""
    keys = block[key]
    if keys.shape[0] == 0:
        return np.zeros(3, dtype=np.uint64)
    return np.asarray([keys.shape[0], keys[0], keys[-1]], dtype=np.uint64)


def merge_exchange_sort(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str] = None,
    *,
    presorted: bool = False,
    verify: bool = True,
) -> Tuple[List[ColumnBlock], bool]:
    """Sort distributed blocks globally by ``key`` with merge-exchange.

    Parameters
    ----------
    blocks:
        one block per rank; per-rank counts are preserved (a comparator
        splits the merged pair back at the original counts).
    presorted:
        skip the initial local sorts when each rank's block is already
        locally sorted (the method-B steady state: the previous step's
        output order plus slight position drift re-keyed and locally
        re-sorted by the caller).
    verify:
        exchange boundary keys after the network and reduce a global
        sortedness flag (one cheap extra round).  The comparator network is
        only *guaranteed* to sort equal-size blocks [16]; with the nearly
        equal counts of the method-B steady state failures are rare but
        possible, and callers fall back to the partition-based sort on the
        (now almost sorted) data when the flag is False.

    Returns ``(blocks, sorted_ok)``; blocks satisfy "each block locally
    sorted, counts unchanged", and additionally ``max(key on rank i) <=
    min(key on rank j)`` for all ``i < j`` whenever ``sorted_ok``.
    """
    if len(blocks) != machine.nprocs:
        raise ValueError(f"{len(blocks)} blocks for {machine.nprocs} ranks")
    current = list(blocks) if presorted else local_sort(machine, blocks, key, phase)
    P = machine.nprocs
    if P == 1:
        return current, True

    for round_pairs in merge_exchange_rounds(P):
        # 1. control exchange: (count, min, max) both ways for every pair
        controls = exchange_pairs(
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
        exchanged = exchange_pairs(
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
    return current, _verify_sorted(machine, current, key, phase)


def _verify_sorted(
    machine: Machine,
    blocks: Sequence[ColumnBlock],
    key: str,
    phase: Optional[str],
) -> bool:
    """Boundary-key ring check plus a small reduction of the ok-flags."""
    from repro.simmpi.collectives import allreduce
    from repro.simmpi.p2p import send_round

    P = machine.nprocs
    nonempty = [r for r in range(P) if blocks[r].n]
    # each non-empty rank sends its max key to the next non-empty rank
    transfers = []
    for i in range(len(nonempty) - 1):
        src, dst = nonempty[i], nonempty[i + 1]
        transfers.append((src, dst, np.asarray([blocks[src][key][-1]])))
    recv = send_round(machine, transfers, phase)
    ok = np.ones(P)
    for r in range(P):
        for _src, payload in recv[r]:
            if blocks[r].n and payload[0] > blocks[r][key][0]:
                ok[r] = 0.0
    return bool(allreduce(machine, ok, op="min", phase=phase) > 0.5)
