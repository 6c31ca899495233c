"""The per-message round loops, kept as test oracles.

These are the bodies ``simmpi.p2p.sendrecv`` (its own scalar charge) and
``send_round`` (one Python iteration per message),
``simmpi.algos._run_rounds`` / ``_bruck_rounds`` / ``_pairwise_rounds`` /
``alltoallv_staged`` (payload column lists forwarded through every round,
``held`` dicts, ``islice`` unpacking) and the ``Exchange.as_sends`` /
``Exchange.collect`` bridge of ``alltoallv`` had before a round became three
arrays, moved here verbatim (the only edit: the auditor hook of a round —
and of a lone message, which had a hook of its own — takes ``(src, dst,
nbytes)`` arrays now).  :func:`alltoallv_bridge` strings them together the
way ``alltoallv`` did for a staged machine or one with an execution backend.
The property tests in ``tests/simmpi/test_round_oracles.py`` hold the array
forms to them bit for bit; :func:`observed` of ``redistribution_oracles``
plus :class:`FunnelLog` is what "bit for bit" means there.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi import algos
from repro.simmpi.collectives import (
    Exchange,
    Payload,
    _charge_alltoall,
    _deliver,
    _validate_sends,
    message_triples,
    payload_nbytes,
)
from repro.simmpi.machine import Machine
from repro.simmpi.p2p import _check_ranks, _route

Message = Tuple[int, int, List[int]]


class FunnelLog:
    """A funnel listener (``machine.obs``) keeping the ordered stream of
    charges and labeled counts exactly as ``Machine.commit``/``count`` emit
    it, floats as hex."""

    per_rank = True

    def __init__(self):
        self.stream = []

    def on_charge(self, phase, op, t, before, after, messages, nbytes, rank_before, clocks):
        self.stream.append((
            "charge", phase, op, t.hex(), before.hex(), after.hex(), messages, nbytes,
            [c.hex() for c in rank_before.tolist()], [c.hex() for c in clocks.tolist()],
        ))

    def on_count(self, name, value, labels):
        self.stream.append(("count", name, value, sorted(labels.items())))

    def clear(self):
        self.stream.clear()


# ------------------------------------------------------------------ p2p round


def sendrecv_scalar(
    machine: Machine,
    src: int,
    dst: int,
    payload: Payload,
    phase: Optional[str] = None,
) -> Payload:
    src = machine.check_rank(src)
    dst = machine.check_rank(dst)
    nbytes = payload_nbytes(payload)
    if machine.auditor is not None and src != dst:
        machine.auditor.observe_round(
            *(np.array([v], dtype=np.int64) for v in (src, dst, nbytes)), phase
        )
    if src == dst:
        machine.copy(nbytes, phase)
        return payload
    model = machine.model
    hops = int(machine.topology.hops(src, dst))
    token = machine.begin()
    send_done = machine.clocks[src] + model.overhead + float(model.copy_time(nbytes))
    # a message is as slow as its slowest endpoint (degraded-NIC perturbation)
    arrival = (
        send_done
        + float(model.msg_time(hops, nbytes)) * machine.comm_factor(src, dst)
        - model.overhead
    )
    machine.clocks[src] = send_done
    machine.clocks[dst] = max(machine.clocks[dst] + model.overhead, arrival) + float(
        model.copy_time(nbytes)
    )
    machine.commit(token, phase, "sendrecv", 1, nbytes)
    return _route(machine, [(src, dst, payload)])[0]


def send_round_loop(
    machine: Machine,
    transfers: Sequence[Tuple[int, int, Payload]],
    phase: Optional[str] = None,
    *,
    op: str = "send_round",
) -> List[List[Tuple[int, Payload]]]:
    model = machine.model
    # like a bad alltoallv destination, a bad rank rejects the whole round
    # before anything is audited, routed or charged
    ends = np.array([t[:2] for t in transfers], dtype=np.int64).reshape(-1, 2)
    _check_ranks(machine, ends)
    if machine.auditor is not None:
        sizes = np.array([payload_nbytes(t[2]) for t in transfers], dtype=np.int64)
        machine.auditor.observe_round(ends[:, 0], ends[:, 1], sizes, phase)
    recv: List[List[Tuple[int, Payload]]] = [[] for _ in range(machine.nprocs)]
    token = machine.begin()
    n_messages = 0
    total_bytes = 0
    # sends post first (non-blocking), receives complete afterwards
    arrivals: List[Tuple[int, float, Payload, int]] = []
    delivered = _route(machine, transfers)
    # one topology query for the round (a scalar query per message was most
    # of its host cost)
    hops = machine.topology.hops(ends[:, 0], ends[:, 1]).tolist()
    for (src, dst), hop, transfer, received in zip(ends.tolist(), hops, transfers, delivered):
        nbytes = payload_nbytes(transfer[2])
        if src == dst:
            machine.clocks[src] += float(model.copy_time(nbytes))
            recv[dst].append((src, received))
            continue
        send_done = machine.clocks[src] + model.overhead + float(model.copy_time(nbytes))
        arrival = (
            send_done
            + float(model.msg_time(hop, nbytes)) * machine.comm_factor(src, dst)
            - model.overhead
        )
        machine.clocks[src] = send_done
        arrivals.append((dst, arrival, received, src))
        n_messages += 1
        total_bytes += nbytes
    for dst, arrival, payload, src in arrivals:
        nbytes = payload_nbytes(payload)
        machine.clocks[dst] = max(machine.clocks[dst] + model.overhead, arrival) + float(
            model.copy_time(nbytes)
        )
        recv[dst].append((src, payload))
    for lst in recv:
        lst.sort(key=lambda item: item[0])
    machine.commit(token, phase, op, n_messages, total_bytes)
    return recv


# ------------------------------------------------------------ staged executor


def _payload_cols(payload: Payload) -> Tuple[str, List[np.ndarray]]:
    """Split a payload into its container kind and flat column list."""
    if payload is None:
        return "none", []
    if isinstance(payload, np.ndarray):
        return "array", [payload]
    if isinstance(payload, tuple):
        return "tuple", list(payload)
    if isinstance(payload, list):
        return "list", list(payload)
    raise TypeError(f"unsupported payload type {type(payload)!r}")


def _rebuild_payload(kind: str, cols: List[np.ndarray]) -> Payload:
    if kind == "none":
        return None
    if kind == "array":
        return cols[0]
    if kind == "tuple":
        return tuple(cols)
    return list(cols)


def run_rounds_loop(
    machine: Machine,
    collective: str,
    algo: str,
    phase: Optional[str],
    items: Sequence[List[np.ndarray]],
    origins: Iterable[int],
    rounds: Sequence[Sequence[Message]],
) -> List[Dict[int, List[np.ndarray]]]:
    sizes = [payload_nbytes(cols) for cols in items]
    messages = sum(len(batch) for batch in rounds)
    nbytes = sum(sizes[t] for batch in rounds for _src, _dst, ids in batch for t in ids)
    auditor = machine.auditor
    # no participant can leave a collective before the last one enters it
    machine.synchronize()
    if auditor is not None:
        auditor.observe_algo_collective(collective, algo, phase, messages, nbytes)
    machine.count("comm.algo.messages", messages, collective=collective, algo=algo)
    machine.count("comm.algo.bytes", nbytes, collective=collective, algo=algo)
    held: List[Dict[int, List[np.ndarray]]] = [{} for _ in range(machine.nprocs)]
    for t, rank in enumerate(origins):
        held[rank][t] = items[t]
    op = f"{collective}.{algo}"
    with auditor.algo_scope() if auditor is not None else contextlib.nullcontext():
        for batch in filter(None, rounds):
            transfers = [
                (src, dst, tuple(col for t in ids for col in held[src][t]))
                for src, dst, ids in batch
            ]
            inbox = [dict(lst) for lst in send_round_loop(machine, transfers, phase, op=op)]
            for src, dst, ids in batch:
                cols = iter(inbox[dst][src])
                for t in ids:
                    held[dst][t] = list(itertools.islice(cols, len(items[t])))
    return held


# ------------------------------------------------------------------ schedules


def as_messages(rounds) -> List[List[Message]]:
    """Array rounds ``(src, dst, ptr, ids)`` as the ``(src, dst, item ids)``
    batches the loops below produce and :func:`run_rounds_loop` consumes."""
    return [
        [
            (s, d, ids[lo:hi].tolist())
            for s, d, lo, hi in zip(src.tolist(), dst.tolist(), ptr[:-1].tolist(), ptr[1:].tolist())
        ]
        for src, dst, ptr, ids in rounds
    ]


def pairwise_rounds_loop(nprocs: int, routes: Sequence[Tuple[int, int]]) -> List[List[Message]]:
    pow2 = nprocs & (nprocs - 1) == 0
    item = {route: t for t, route in enumerate(routes)}
    return [
        [
            (i, peer, [item[i, peer]])
            for i in range(nprocs)
            for peer in [(i ^ r) if pow2 else (i + r) % nprocs]
            if (i, peer) in item
        ]
        for r in range(1, nprocs)
    ]


def bruck_rounds_loop(nprocs: int, routes: Sequence[Tuple[int, int]]) -> List[List[Message]]:
    at = [src for src, _dst in routes]
    rounds = []
    for step in (1 << k for k in range(algos._ceil_log2(nprocs))):
        moving: List[List[int]] = [[] for _ in range(nprocs)]
        for t, (_src, dst) in enumerate(routes):
            if ((dst - at[t]) % nprocs) & step:
                moving[at[t]].append(t)
                at[t] = (at[t] + step) % nprocs
        rounds.append(
            [(i, (i + step) % nprocs, ids) for i, ids in enumerate(moving) if ids]
        )
    return rounds


# ---------------------------------------------------------------- entry point


def alltoallv_staged_loop(
    machine: Machine,
    sends: Sequence[Dict[int, Payload]],
    phase: Optional[str],
    *,
    count_exchange: str,
    algo: str,
) -> List[List[Tuple[int, Payload]]]:
    P = machine.nprocs
    if machine.auditor is not None:
        # the same count-table/neighborhood validation the direct path gets;
        # the ledger is fed by the staged rounds instead of the send table
        machine.auditor.observe_alltoallv(sends, phase, count_exchange, record=False)
    if count_exchange == "dense":
        # the MPI_Alltoall count exchange preceding a general redistribution
        # — identical to the term the direct path folds into its charge; it
        # starts when the last rank has entered, like the rounds after it
        machine.synchronize()
        t = machine.model.bruck_alltoall_time(P, 8.0, machine.topology.diameter())
        machine.advance(
            t * machine.comm_factor(), phase, messages=0, nbytes=0, op=f"alltoallv.{algo}"
        )
    routes = [(src, dst) for src, targets in enumerate(sends) for dst in targets if dst != src]
    parts = [_payload_cols(sends[src][dst]) for src, dst in routes]
    schedule = {"pairwise": pairwise_rounds_loop, "bruck": bruck_rounds_loop}[algo]
    held = run_rounds_loop(
        machine, "alltoallv", algo, phase,
        [cols for _kind, cols in parts], [src for src, _dst in routes], schedule(P, routes),
    )
    item = iter(range(len(routes)))
    recv: List[List[Tuple[int, Payload]]] = [[] for _ in range(P)]
    # ascending sources make every recv list source-sorted as it is built
    for src, targets in enumerate(sends):
        for dst, payload in targets.items():
            if dst != src:
                t = next(item)
                payload = _rebuild_payload(parts[t][0], held[dst][t])
            recv[dst].append((src, payload))
    return recv


# -------------------------------------------------- the Exchange <-> dict bridge


def exchange_as_sends(exchange: Exchange, nprocs: int) -> List[Dict[int, Payload]]:
    """The same exchange as a ``list[dict]`` of per-message column views
    (what a staged engine shipped and an execution backend transported)."""
    buffers = tuple(c[exchange.row_index] for c in exchange.columns)
    sends: List[Dict[int, Payload]] = [{} for _ in range(nprocs)]
    bounds = exchange.row_ptr.tolist()
    for k, (src, dst) in enumerate(zip(exchange.msg_src.tolist(), exchange.msg_dst.tolist())):
        sends[src][dst] = tuple(b[bounds[k]:bounds[k + 1]] for b in buffers)
    return sends


def exchange_collect(
    exchange: Exchange, recv: List[List[Tuple[int, Payload]]]
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Concatenate the per-message ``recv`` lists of :func:`exchange_as_sends`'s
    exchange into the ``(columns, recv_offsets)`` of ``Exchange.deliver``."""
    payloads = [payload for received in recv for _src, payload in received]
    columns = tuple(
        np.concatenate([p[i] for p in payloads]) if payloads else c[:0]
        for i, c in enumerate(exchange.columns)
    )
    rows_to = np.zeros(len(recv), dtype=np.int64)
    np.add.at(rows_to, exchange.msg_dst, np.diff(exchange.row_ptr))
    return columns, np.concatenate(([0], np.cumsum(rows_to)))


def alltoallv_bridge(machine: Machine, sends, phase: Optional[str] = None, *, count_exchange="dense"):
    """``alltoallv`` as it ran on a staged machine or one with a backend:
    a descriptor is taken apart into per-message views, the ``list[dict]``
    goes through the staged loop (or the closed form plus one delivery), and
    the received messages are concatenated back."""
    if isinstance(sends, Exchange):
        sends.validate(machine.nprocs)
        recv = alltoallv_bridge(
            machine, exchange_as_sends(sends, machine.nprocs), phase, count_exchange=count_exchange
        )
        return exchange_collect(sends, recv)
    _validate_sends(machine.nprocs, sends)
    algo = getattr(machine.collective_algos, "alltoallv", "direct")
    if algo != "direct" and machine.nprocs > 1:
        algo = algos.resolve(machine, "alltoallv", algo, triples=message_triples(sends))
        machine.count("comm.algo.calls", collective="alltoallv", algo=algo)
        if algo != "direct":
            return alltoallv_staged_loop(
                machine, sends, phase, count_exchange=count_exchange, algo=algo
            )
    if machine.auditor is not None:
        machine.auditor.observe_alltoallv(sends, phase, count_exchange)
    _charge_alltoall(machine, message_triples(sends), phase, count_exchange)
    return _deliver(machine, sends)
