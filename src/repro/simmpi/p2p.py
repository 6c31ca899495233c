"""Point-to-point communication primitives.

These charge the merge-based parallel sorting method [15] (pairwise
merge-exchange steps of Batcher's network, whose windows the sort merges in
its own flat block) and carry generic send/receive rounds.  Unlike the
collectives, point-to-point operations only advance the clocks of the ranks
involved, so load imbalance and pipelining across rounds are modeled
faithfully.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.collectives import Payload, payload_nbytes
from repro.simmpi.machine import Machine

__all__ = ["charge_round", "send_round", "exchange_pairs", "sendrecv"]


def _route(machine: Machine, transfers: Sequence[Tuple[int, int, Payload]]):
    """Ship a batch of ``(src, dst, payload)`` through the machine's
    execution backend, or return the payloads as-is (the historical
    in-process handoff).  Pure data plane: charging never happens here."""
    backend = machine.backend
    if backend is None:
        return [payload for _src, _dst, payload in transfers]
    return backend.route(transfers, machine.nprocs)


def sendrecv(
    machine: Machine,
    src: int,
    dst: int,
    payload: Payload,
    phase: Optional[str] = None,
) -> Payload:
    """Single message from ``src`` to ``dst``; returns the payload.

    The receiver clock becomes ``max(receiver, sender + message time)`` —
    a receive cannot complete before the matching send arrives.
    """
    src = machine.check_rank(src)
    dst = machine.check_rank(dst)
    nbytes = payload_nbytes(payload)
    if src == dst:
        machine.copy(nbytes, phase)
        return payload
    # a round of one message
    charge_round(machine, *(np.array([v]) for v in (src, dst, nbytes)), phase, op="sendrecv")
    return _route(machine, [(src, dst, payload)])[0]


def charge_round(
    machine: Machine,
    src: np.ndarray,
    dst: np.ndarray,
    nbytes: np.ndarray,
    phase: Optional[str] = None,
    *,
    op: str = "send_round",
) -> None:
    """Audit and charge a round of independent messages, moving no data.

    Message ``k`` travels ``src[k] -> dst[k]`` and is ``nbytes[k]`` long
    (parallel int64 arrays).  Messages from the same source are serialized
    (one NIC per rank); messages to the same destination are serialized on
    receive; a self-message is a local copy.  This is the one round charge
    of :mod:`repro.simmpi`: :func:`sendrecv`, :func:`send_round`, the staged
    collective executor (:mod:`repro.simmpi.algos`) and the merge sort's
    boundary check all charge through it (:func:`exchange_pairs` keeps its
    own charge, over the same kind of arrays: both directions of a pair
    overlap, so a side waits for ``max(posted, arrival)``, not for
    ``max(posted + o, arrival)``).

    ``op`` names the charging primitive in the span stream; the staged
    engines tag their rounds with the owning algorithm (e.g.
    ``"alltoallv.bruck"``).
    """
    model = machine.model
    # like a bad alltoallv destination, a bad rank rejects the whole round
    # before anything is audited or charged
    _check_ranks(machine, np.stack((src, dst), axis=1))
    if machine.auditor is not None:
        machine.auditor.observe_round(src, dst, nbytes, phase)
    token = machine.begin()
    clocks = machine.clocks
    copies = model.copy_time(nbytes)
    # one topology query for the round
    wires = model.msg_time(machine.topology.hops(src, dst), nbytes)
    factors = machine.comm_factors
    if factors is not None:
        # a message is as slow as its slowest endpoint (degraded-NIC perturbation)
        wires = wires * np.maximum(factors[src], factors[dst])
    local = src == dst
    arrivals = np.empty(src.shape[0])
    # sends post first (non-blocking), receives complete afterwards; a rank
    # that posts (receives) several messages handles them in table order
    for batch in _occurrences(src):
        rank = src[batch]
        posted = clocks[rank] + model.overhead + copies[batch]
        arrivals[batch] = posted + wires[batch] - model.overhead
        clocks[rank] = np.where(local[batch], clocks[rank] + copies[batch], posted)
    remote = np.flatnonzero(~local)
    for batch in _occurrences(dst[remote]):
        batch = remote[batch]
        rank = dst[batch]
        clocks[rank] = np.maximum(clocks[rank] + model.overhead, arrivals[batch]) + copies[batch]
    machine.commit(token, phase, op, int(remote.shape[0]), int(nbytes[remote].sum()))


def _occurrences(ranks: np.ndarray) -> List[np.ndarray]:
    """Index sets that each name a rank at most once: set ``k`` holds the
    position of every rank's ``k``-th occurrence in ``ranks`` — one set
    unless a rank repeats, so a round is one array pass per set."""
    order = np.argsort(ranks, kind="stable")
    grouped = ranks[order]
    first = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    nth = np.arange(order.shape[0]) - np.repeat(first, np.diff(np.append(first, order.shape[0])))
    return [order[nth == k] for k in range(int(nth.max(initial=-1)) + 1)]


def send_round(
    machine: Machine,
    transfers: Sequence[Tuple[int, int, Payload]],
    phase: Optional[str] = None,
    *,
    op: str = "send_round",
) -> List[List[Tuple[int, Payload]]]:
    """A round of independent messages ``(src, dst, payload)``, charged by
    :func:`charge_round`.  Returns ``recv[j]`` as source-sorted
    ``(src, payload)`` pairs.
    """
    ends = np.array([t[:2] for t in transfers], dtype=np.int64).reshape(-1, 2)
    sizes = np.array([payload_nbytes(t[2]) for t in transfers], dtype=np.int64)
    charge_round(machine, ends[:, 0], ends[:, 1], sizes, phase, op=op)
    recv: List[List[Tuple[int, Payload]]] = [[] for _ in range(machine.nprocs)]
    for (src, dst), received in zip(ends.tolist(), _route(machine, transfers)):
        recv[dst].append((src, received))
    for lst in recv:
        lst.sort(key=lambda item: item[0])
    return recv


def exchange_pairs(
    machine: Machine,
    ends: np.ndarray,
    nbytes: np.ndarray,
    phase: Optional[str] = None,
) -> None:
    """Audit and charge a round of simultaneous pairwise exchanges, moving
    no data: row ``k`` of the ``(k, 2)`` int64 arrays is the pair ``(a, b)``
    and the bytes ``(a -> b, b -> a)``.

    Both directions overlap (MPI_Sendrecv): each side pays its send overhead
    plus the arrival of the other side's message.  Each rank may appear in at
    most one pair per call (a comparator round of a sorting network); a bad
    or repeated rank rejects the round before anything is audited or charged.
    """
    model = machine.model
    _check_disjoint(machine, ends)
    if machine.auditor is not None:
        machine.auditor.observe_round(ends.ravel(), ends[:, ::-1].ravel(), nbytes.ravel(), phase)
    token = machine.begin()
    # The pairs of a round are disjoint, so the round is charged as one set
    # of array operations over (pair, direction) — the same float operations
    # in the same order as a pair at a time.  Column 0 is a and its message
    # to b, column 1 is b and its message to a.
    copies = model.copy_time(nbytes)
    wires = model.msg_time(machine.topology.hops(ends[:, 0], ends[:, 1])[:, None], nbytes)
    # a message is as slow as its slowest endpoint (degraded-NIC perturbation)
    factors = machine.comm_factors
    pair_factor = 1.0 if factors is None else factors[ends].max(axis=1)[:, None]
    posted = machine.clocks[ends] + model.overhead + copies
    arrived = posted + wires * pair_factor - model.overhead
    machine.clocks[ends] = np.maximum(posted, arrived[:, ::-1]) + copies[:, ::-1]
    machine.commit(token, phase, "exchange_pairs", 2 * ends.shape[0], int(nbytes.sum()))


def _check_ranks(machine: Machine, ends: np.ndarray) -> None:
    """Every rank of a round valid; the first offender, in table order, is
    the one named."""
    ranks = ends.ravel()
    bad = np.flatnonzero((ranks < 0) | (ranks >= machine.nprocs))
    if bad.size:
        machine.check_rank(int(ranks[bad[0]]))


def _check_disjoint(machine: Machine, ends: np.ndarray) -> None:
    """Every rank of a round valid and in at most one pair: a bad rank is
    named first, then the first pair, in pair order, that repeats a rank."""
    _check_ranks(machine, ends)
    ranks = ends.ravel()
    # the ranks are in range: one count per rank decides it (``np.unique``
    # would load ``numpy.ma`` into the first timed round of a process)
    if np.bincount(ranks, minlength=1).max() <= 1:
        return
    seen: set = set()
    for a, b in ends.tolist():
        if a == b:
            raise ValueError(f"pair ({a}, {b}) exchanges with itself")
        for r in (a, b):
            if r in seen:
                raise ValueError(f"rank {r} appears in more than one exchange")
            seen.add(r)
