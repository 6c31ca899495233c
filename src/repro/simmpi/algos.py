"""Per-collective algorithm engines with topology-aware staged charging.

The default collectives in :mod:`repro.simmpi.collectives` charge each call
with one closed-form LogGP formula (the ``direct`` algorithm).  This module
provides the *mechanistic* alternatives an MPI implementation actually
chooses between, executed as explicit rounds of
:func:`repro.simmpi.p2p.send_round` messages — every staged message ships
**real payload data** and is charged individually with its topology hop
distance, so the small-message/large-message crossovers between algorithms
emerge from the machine model instead of being asserted by a formula.

Algorithm matrix
----------------
===========  ==========================================================
collective   algorithms (besides ``direct`` and ``auto``)
===========  ==========================================================
alltoallv    ``pairwise`` (P−1 exchange-pair rounds, XOR schedule on
             power-of-two rank counts, ring schedule otherwise),
             ``bruck`` (⌈log₂P⌉ staged-forwarding rounds; each round
             ships every payload whose relative destination has the
             round bit set to the rank ``2^k`` ahead)
allgatherv   ``ring`` (P−1 neighbor rounds), ``recursive-doubling``
             (⌈log₂P⌉ rounds; XOR partners on powers of two, the
             dissemination variant otherwise)
allreduce    ``binomial-tree`` (reduce-up + broadcast-down, 2(P−1)
             messages), ``recursive-halving-doubling``
             (reduce-scatter + allgather on vector halves; falls back
             to ``binomial-tree`` on non-power-of-two rank counts)
bcast        ``binomial-tree``
gatherv      ``binomial-tree`` (leaves forward bundled contributions)
scatterv     ``binomial-tree`` (root pushes subtree bundles down)
===========  ==========================================================

The hard data-plane contract: **every algorithm returns bitwise-identical
results to ``direct``** on both execution backends.  Staged engines ship
the real arrays through the rounds but never reassociate reductions — the
``allreduce`` result is always computed by the canonical rank-ordered
reduction, the staged rounds only model (and really perform) the
communication.  Only modeled clocks and per-phase message/byte totals may
differ between algorithms.

``auto`` resolves per call from the message volume, the rank count and the
topology diameter using the machine's **nominal** (pre-perturbation) cost
model, so the selection is identical across chaos seeds and the DST ledger
fingerprints stay schedule-independent.

Accounting: before running its rounds an engine self-reports the planned
per-phase staged totals to the auditor (:meth:`CommAuditor
.observe_algo_collective <repro.verify.audit.CommAuditor
.observe_algo_collective>`) and then executes the rounds inside
:meth:`CommAuditor.algo_scope <repro.verify.audit.CommAuditor.algo_scope>`;
the ``collective-algo-accounting`` invariant asserts the two agree exactly
— staged forwarding must balance in the ledger.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.machine import Machine
from repro.simmpi.collectives import Payload, payload_nbytes
from repro.simmpi.p2p import send_round

__all__ = [
    "ALGO_CHOICES",
    "CollectiveAlgos",
    "parse_algos",
    "resolve",
    "alltoallv_staged",
    "allgatherv_staged",
    "allreduce_staged",
    "bcast_staged",
    "gatherv_staged",
    "scatterv_staged",
]

#: accepted algorithm names per collective (``auto`` resolves per call)
ALGO_CHOICES: Dict[str, Tuple[str, ...]] = {
    "alltoallv": ("direct", "pairwise", "bruck", "auto"),
    "allgatherv": ("direct", "ring", "recursive-doubling", "auto"),
    "allreduce": ("direct", "binomial-tree", "recursive-halving-doubling", "auto"),
    "bcast": ("direct", "binomial-tree", "auto"),
    "gatherv": ("direct", "binomial-tree", "auto"),
    "scatterv": ("direct", "binomial-tree", "auto"),
}


@dataclasses.dataclass(frozen=True)
class CollectiveAlgos:
    """Frozen per-collective algorithm selection.

    ``"direct"`` everywhere reproduces the historical closed-form charging
    byte for byte; any other name routes that collective through the staged
    engines in this module.
    """

    alltoallv: str = "direct"
    allgatherv: str = "direct"
    allreduce: str = "direct"
    bcast: str = "direct"
    gatherv: str = "direct"
    scatterv: str = "direct"

    def __post_init__(self) -> None:
        for collective, choices in ALGO_CHOICES.items():
            algo = getattr(self, collective)
            if algo not in choices:
                raise ValueError(
                    f"unknown {collective} algorithm {algo!r}; "
                    f"choose from {', '.join(choices)}"
                )

    @property
    def is_direct(self) -> bool:
        """True when every collective uses the default ``direct`` path."""
        return all(
            getattr(self, collective) == "direct" for collective in ALGO_CHOICES
        )

    @property
    def spec(self) -> str:
        """Canonical spec string (round-trips through :func:`parse_algos`)."""
        items = [
            f"{collective}={getattr(self, collective)}"
            for collective in sorted(ALGO_CHOICES)
            if getattr(self, collective) != "direct"
        ]
        return "+".join(items) if items else "direct"


def parse_algos(spec) -> Optional[CollectiveAlgos]:
    """Parse a collective-algorithm spec.

    Grammar: ``spec := item ('+' item)*`` with ``item := NAME |
    COLLECTIVE '=' NAME``.  A bare algorithm name applies to every
    collective that supports it (``"bruck"`` means
    ``alltoallv=bruck``, ``"binomial-tree"`` selects the tree engine for
    allreduce/bcast/gatherv/scatterv, ``"auto"`` turns on per-call
    selection everywhere); explicit ``collective=name`` items pin one
    collective each, e.g. ``"alltoallv=bruck+allgatherv=ring"``.

    ``None`` and ``"direct"`` return ``None`` — the caller should leave the
    machine's default (zero-overhead) path untouched.  A
    :class:`CollectiveAlgos` instance passes through unchanged.
    """
    if spec is None:
        return None
    if isinstance(spec, CollectiveAlgos):
        return None if spec.is_direct else spec
    if not isinstance(spec, str):
        raise TypeError(f"collective_algos must be a string, got {type(spec)!r}")
    chosen: Dict[str, str] = {}
    for raw in spec.split("+"):
        item = raw.strip()
        if not item:
            raise ValueError(f"empty item in collective-algorithm spec {spec!r}")
        if "=" in item:
            collective, _, algo = item.partition("=")
            collective = collective.strip()
            algo = algo.strip()
            if collective not in ALGO_CHOICES:
                raise ValueError(
                    f"unknown collective {collective!r} in spec {spec!r}; "
                    f"choose from {', '.join(sorted(ALGO_CHOICES))}"
                )
            if algo not in ALGO_CHOICES[collective]:
                raise ValueError(
                    f"unknown {collective} algorithm {algo!r} in spec {spec!r}; "
                    f"choose from {', '.join(ALGO_CHOICES[collective])}"
                )
            if collective in chosen and chosen[collective] != algo:
                raise ValueError(
                    f"conflicting algorithms for {collective} in spec {spec!r}"
                )
            chosen[collective] = algo
        else:
            matched = [c for c, names in ALGO_CHOICES.items() if item in names]
            if not matched:
                known = sorted({n for names in ALGO_CHOICES.values() for n in names})
                raise ValueError(
                    f"unknown algorithm {item!r} in spec {spec!r}; "
                    f"choose from {', '.join(known)}"
                )
            for collective in matched:
                if collective in chosen and chosen[collective] != item:
                    raise ValueError(
                        f"conflicting algorithms for {collective} in spec {spec!r}"
                    )
                chosen[collective] = item
    algos = CollectiveAlgos(**chosen)
    return None if algos.is_direct else algos


# -- payload plumbing ---------------------------------------------------------


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


def _ceil_log2(nprocs: int) -> int:
    return int(np.ceil(np.log2(nprocs))) if nprocs > 1 else 0


# -- accounting ---------------------------------------------------------------


def _begin_staged(
    machine: Machine,
    collective: str,
    algo: str,
    phase: Optional[str],
    messages: int,
    nbytes: int,
) -> None:
    """Self-report the planned staged totals before the rounds run.

    The plan is derived from the schedule alone (payload sizes, never
    values); the auditor independently re-accounts every round inside
    :func:`_scope`, and the ``collective-algo-accounting`` invariant
    asserts the two agree exactly.
    """
    if machine.auditor is not None:
        machine.auditor.observe_algo_collective(collective, algo, phase, messages, nbytes)
    machine.count("comm.algo.messages", messages, collective=collective, algo=algo)
    machine.count("comm.algo.bytes", nbytes, collective=collective, algo=algo)


def _scope(machine: Machine):
    if machine.auditor is None:
        return contextlib.nullcontext()
    return machine.auditor.algo_scope()


# -- auto selection -----------------------------------------------------------


def _nominal_model(machine: Machine):
    # the *pre-perturbation* model: auto selection must not depend on the
    # chaos seed, or ledgers would diverge between DST cells
    return getattr(machine, "nominal_model", None) or machine.model


def _latency_term(model, diameter: int) -> float:
    return model.overhead + model.latency + model.hop_latency * (diameter / 2.0)


def resolve(machine: Machine, collective: str, algo: str, **metrics) -> str:
    """Resolve ``algo`` (possibly ``"auto"``) to a concrete algorithm name.

    ``metrics`` carries the per-call sizing the selector needs:
    ``sends=`` for alltoallv, ``nbytes=`` (total or item bytes) for the
    other collectives.  Non-``auto`` names pass through unchanged except
    for documented fallbacks (``recursive-halving-doubling`` on a
    non-power-of-two rank count runs as ``binomial-tree``).
    """
    P = machine.nprocs
    if collective == "allreduce" and algo in ("recursive-halving-doubling", "auto"):
        if P & (P - 1) and algo == "recursive-halving-doubling":
            return "binomial-tree"
    if algo != "auto":
        return algo
    model = _nominal_model(machine)
    diam = machine.topology.diameter()
    lat = _latency_term(model, diam)
    K = _ceil_log2(P)
    if collective == "alltoallv":
        n_msgs = 0
        total = 0
        for src, targets in enumerate(metrics["sends"]):
            for dst, payload in targets.items():
                if dst != src:
                    n_msgs += 1
                    total += payload_nbytes(payload)
        if n_msgs == 0:
            return "pairwise"  # nothing ships: zero staged rounds
        fan = n_msgs / P
        vol = total / P
        o_eff = model.overhead * (1.0 + model.congestion * fan / 64.0)
        t_direct = (
            o_eff * fan
            + model.latency
            + model.hop_latency * diam / 2.0
            + vol / model.bandwidth
        )
        t_pairwise = (P - 1) * lat + vol / model.bandwidth
        # Bruck forwards ~half the accumulated items per round: log-round
        # latency bought with a log-factor bandwidth overhead
        t_bruck = K * lat + (vol * K / 2.0) / model.bandwidth
        candidates = [("bruck", t_bruck), ("pairwise", t_pairwise), ("direct", t_direct)]
    elif collective == "allgatherv":
        total = float(metrics["nbytes"])
        bw_term = (P - 1) / max(P, 1) * total / model.bandwidth
        candidates = [
            ("recursive-doubling", K * lat + bw_term),
            ("ring", (P - 1) * lat + bw_term),
        ]
    elif collective == "allreduce":
        nbytes = float(metrics["nbytes"])
        t_binomial = 2.0 * K * (lat + nbytes / model.bandwidth)
        # halving-doubling pays two posts per rank per round but only ships
        # each vector element ~twice in total
        t_rhd = 2.0 * K * (lat + model.overhead) + 2.0 * nbytes / model.bandwidth
        candidates = [("binomial-tree", t_binomial)]
        if P & (P - 1) == 0:
            candidates.append(("recursive-halving-doubling", t_rhd))
    else:
        # the rooted collectives have a single staged shape
        return "binomial-tree"
    best = min(candidates, key=lambda item: item[1])
    return best[0]


# -- alltoallv ----------------------------------------------------------------


def _charge_count_exchange(
    machine: Machine, phase: Optional[str], count_exchange: str, op: str
) -> None:
    """The dense MPI_Alltoall count exchange preceding a general
    redistribution — identical to the term the direct path folds into its
    closed-form charge."""
    if count_exchange == "dense":
        t = machine.model.bruck_alltoall_time(
            machine.nprocs, 8.0, machine.topology.diameter()
        )
        machine.advance(t * machine.comm_factor(), phase, messages=0, nbytes=0, op=op)
    elif count_exchange not in ("sparse", "cached"):
        raise ValueError(
            f"count_exchange must be 'dense', 'sparse' or 'cached', got {count_exchange!r}"
        )


def _finish_alltoallv(
    recv: List[List[Tuple[int, Payload]]], sends: Sequence[Dict[int, Payload]]
) -> List[List[Tuple[int, Payload]]]:
    """Append the (free, never-staged) self-sends and source-sort."""
    for src, targets in enumerate(sends):
        if src in targets:
            recv[src].append((src, targets[src]))
    for lst in recv:
        lst.sort(key=lambda item: item[0])
    return recv


def alltoallv_staged(
    machine: Machine,
    sends: Sequence[Dict[int, Payload]],
    phase: Optional[str],
    *,
    count_exchange: str,
    algo: str,
) -> List[List[Tuple[int, Payload]]]:
    """Staged alltoallv: ``pairwise`` or ``bruck`` rounds over ``send_round``.

    Self-sends never enter a round (local move, free — exactly like the
    direct path); the returned ``recv`` lists are bitwise- and
    order-identical to :func:`repro.simmpi.collectives.alltoallv`.
    """
    auditor = machine.auditor
    if auditor is not None:
        # the same count-table/neighborhood validation the direct path gets;
        # the ledger is fed by the staged rounds instead of the send table
        auditor.observe_alltoallv(sends, phase, count_exchange, record=False)
    machine.synchronize()
    op = f"alltoallv.{algo}"
    _charge_count_exchange(machine, phase, count_exchange, op)
    if algo == "pairwise":
        return _alltoallv_pairwise(machine, sends, phase, op, algo)
    if algo == "bruck":
        return _alltoallv_bruck(machine, sends, phase, op, algo)
    raise ValueError(f"unknown alltoallv algorithm {algo!r}")


def _alltoallv_pairwise(
    machine: Machine,
    sends: Sequence[Dict[int, Payload]],
    phase: Optional[str],
    op: str,
    algo: str,
) -> List[List[Tuple[int, Payload]]]:
    P = machine.nprocs
    pow2 = P & (P - 1) == 0
    rounds: List[List[Tuple[int, int]]] = []
    planned_msgs = 0
    planned_bytes = 0
    for r in range(1, P):
        batch = []
        for i in range(P):
            peer = (i ^ r) if pow2 else (i + r) % P
            if peer in sends[i]:
                batch.append((i, peer))
                planned_msgs += 1
                planned_bytes += payload_nbytes(sends[i][peer])
        if batch:
            rounds.append(batch)
    _begin_staged(machine, "alltoallv", algo, phase, planned_msgs, planned_bytes)
    recv: List[List[Tuple[int, Payload]]] = [[] for _ in range(P)]
    with _scope(machine):
        for batch in rounds:
            round_recv = send_round(
                machine, [(i, j, sends[i][j]) for i, j in batch], phase, op=op
            )
            for dst in range(P):
                recv[dst].extend(round_recv[dst])
    return _finish_alltoallv(recv, sends)


def _alltoallv_bruck(
    machine: Machine,
    sends: Sequence[Dict[int, Payload]],
    phase: Optional[str],
    op: str,
    algo: str,
) -> List[List[Tuple[int, Payload]]]:
    P = machine.nprocs
    # flatten the send table into routed items; item t travels from
    # srcs[t] to dsts[t] across the staged rounds
    kinds: List[str] = []
    colss: List[List[np.ndarray]] = []
    srcs: List[int] = []
    dsts: List[int] = []
    sizes: List[int] = []
    holdings: List[List[int]] = [[] for _ in range(P)]
    for src, targets in enumerate(sends):
        for dst in sorted(targets):
            if dst == src:
                continue
            kind, cols = _payload_cols(targets[dst])
            holdings[src].append(len(kinds))
            kinds.append(kind)
            colss.append(cols)
            srcs.append(src)
            dsts.append(dst)
            sizes.append(payload_nbytes(targets[dst]))
    n_rounds = _ceil_log2(P)
    # symbolic pass: the same routing rule over item ids alone yields the
    # planned totals the auditor will check the executed rounds against
    planned_msgs = 0
    planned_bytes = 0
    sym = [list(h) for h in holdings]
    for k in range(n_rounds):
        step = 1 << k
        nxt: List[List[int]] = [[] for _ in range(P)]
        for i in range(P):
            moved = [t for t in sym[i] if ((dsts[t] - i) % P) & step]
            nxt[i].extend(t for t in sym[i] if not ((dsts[t] - i) % P) & step)
            if moved:
                planned_msgs += 1
                planned_bytes += sum(sizes[t] for t in moved)
                nxt[(i + step) % P].extend(moved)
        sym = nxt
    _begin_staged(machine, "alltoallv", algo, phase, planned_msgs, planned_bytes)
    with _scope(machine):
        for k in range(n_rounds):
            step = 1 << k
            moves: List[List[int]] = [[] for _ in range(P)]
            stays: List[List[int]] = [[] for _ in range(P)]
            for i in range(P):
                for t in holdings[i]:
                    if ((dsts[t] - i) % P) & step:
                        moves[i].append(t)
                    else:
                        stays[i].append(t)
            transfers = []
            senders = []
            for i in range(P):
                if moves[i]:
                    flat = [c for t in moves[i] for c in colss[t]]
                    transfers.append((i, (i + step) % P, tuple(flat)))
                    senders.append(i)
            holdings = stays
            if not transfers:
                continue
            round_recv = send_round(machine, transfers, phase, op=op)
            for i in senders:
                j = (i + step) % P
                payload = next(p for s, p in round_recv[j] if s == i)
                pos = 0
                for t in moves[i]:
                    width = len(colss[t])
                    colss[t] = list(payload[pos : pos + width])
                    pos += width
                    holdings[j].append(t)
    recv: List[List[Tuple[int, Payload]]] = [[] for _ in range(P)]
    for i in range(P):
        for t in holdings[i]:
            recv[i].append((srcs[t], _rebuild_payload(kinds[t], colss[t])))
    return _finish_alltoallv(recv, sends)


# -- allgatherv ---------------------------------------------------------------


def allgatherv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    phase: Optional[str],
    algo: str,
) -> List[np.ndarray]:
    """Staged allgatherv; per-rank results equal ``direct``'s bitwise."""
    machine.synchronize()
    if algo == "ring":
        return _allgatherv_ring(machine, arrays, phase, algo)
    if algo == "recursive-doubling":
        return _allgatherv_rd(machine, arrays, phase, algo)
    raise ValueError(f"unknown allgatherv algorithm {algo!r}")


def _allgatherv_ring(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    phase: Optional[str],
    algo: str,
) -> List[np.ndarray]:
    P = machine.nprocs
    op = f"allgatherv.{algo}"
    total = sum(a.nbytes for a in arrays)
    # every block travels the full ring: one message per rank per round
    _begin_staged(machine, "allgatherv", algo, phase, P * (P - 1), (P - 1) * total)
    held: List[Dict[int, np.ndarray]] = [{i: arrays[i]} for i in range(P)]
    with _scope(machine):
        for r in range(1, P):
            transfers = [
                (i, (i + 1) % P, held[i][(i - r + 1) % P]) for i in range(P)
            ]
            round_recv = send_round(machine, transfers, phase, op=op)
            for j in range(P):
                ((_, payload),) = round_recv[j]
                held[j][(j - r) % P] = payload
    return [np.concatenate([held[i][b] for b in range(P)]) for i in range(P)]


def _allgatherv_rd(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    phase: Optional[str],
    algo: str,
) -> List[np.ndarray]:
    P = machine.nprocs
    op = f"allgatherv.{algo}"
    sizes = [a.nbytes for a in arrays]
    pow2 = P & (P - 1) == 0
    n_rounds = _ceil_log2(P)
    # symbolic plan: XOR partners on powers of two, dissemination otherwise
    sym = [{i} for i in range(P)]
    schedule: List[List[Tuple[int, int]]] = []
    planned_msgs = 0
    planned_bytes = 0
    for k in range(n_rounds):
        step = 1 << k
        batch = [
            (i, (i ^ step) if pow2 else (i + step) % P) for i in range(P)
        ]
        schedule.append(batch)
        nxt = [set(s) for s in sym]
        for i, j in batch:
            planned_msgs += 1
            planned_bytes += sum(sizes[b] for b in sym[i])
            nxt[j] |= sym[i]
        sym = nxt
    _begin_staged(machine, "allgatherv", algo, phase, planned_msgs, planned_bytes)
    held: List[Dict[int, np.ndarray]] = [{i: arrays[i]} for i in range(P)]
    with _scope(machine):
        for batch in schedule:
            metas = []
            transfers = []
            for i, j in batch:
                ids = sorted(held[i])
                metas.append((i, j, ids))
                transfers.append((i, j, tuple(held[i][b] for b in ids)))
            round_recv = send_round(machine, transfers, phase, op=op)
            for i, j, ids in metas:
                payload = next(p for s, p in round_recv[j] if s == i)
                for b, arr in zip(ids, payload):
                    if b not in held[j]:
                        held[j][b] = arr
    return [np.concatenate([held[i][b] for b in range(P)]) for i in range(P)]


# -- allreduce ----------------------------------------------------------------


def allreduce_staged(
    machine: Machine,
    vecs: Sequence[np.ndarray],
    result_1d: np.ndarray,
    phase: Optional[str],
    algo: str,
) -> None:
    """Stage the communication of an allreduce whose result is already known.

    ``vecs`` are the per-rank contribution vectors (flattened, in the
    reduction's working dtype) and ``result_1d`` the canonical reduction
    over them — computed by the caller with the exact rank-ordered
    operation the ``direct`` path uses, because a staged tree reduction
    would reassociate floating-point sums and break the bitwise contract.
    The engine ships the real contribution/result arrays through the
    rounds purely to model (and exercise, on any backend) the traffic.
    """
    machine.synchronize()
    if algo == "binomial-tree":
        _allreduce_binomial(machine, vecs, result_1d, phase, algo)
    elif algo == "recursive-halving-doubling":
        _allreduce_rhd(machine, vecs, result_1d, phase, algo)
    else:
        raise ValueError(f"unknown allreduce algorithm {algo!r}")


def _allreduce_binomial(
    machine: Machine,
    vecs: Sequence[np.ndarray],
    result_1d: np.ndarray,
    phase: Optional[str],
    algo: str,
) -> None:
    P = machine.nprocs
    op = f"allreduce.{algo}"
    sizes = [v.nbytes for v in vecs]
    n_rounds = _ceil_log2(P)
    # reduce-up: rank v (lowest set bit 2^k) forwards its accumulated
    # contribution bundle to v - 2^k in round k; P-1 messages total
    sym = [{i} for i in range(P)]
    reduce_sched: List[List[Tuple[int, int]]] = []
    planned_msgs = 0
    planned_bytes = 0
    for k in range(n_rounds):
        step = 1 << k
        batch = [(v, v - step) for v in range(step, P, 2 * step)]
        reduce_sched.append(batch)
        for s, d in batch:
            planned_msgs += 1
            planned_bytes += sum(sizes[b] for b in sym[s])
            sym[d] |= sym[s]
    # broadcast-down of the result along the reversed tree: P-1 messages
    bcast_sched: List[List[Tuple[int, int]]] = []
    for k in reversed(range(n_rounds)):
        step = 1 << k
        batch = [(v, v + step) for v in range(0, P, 2 * step) if v + step < P]
        bcast_sched.append(batch)
        planned_msgs += len(batch)
        planned_bytes += len(batch) * result_1d.nbytes
    _begin_staged(machine, "allreduce", algo, phase, planned_msgs, planned_bytes)
    held: List[Dict[int, np.ndarray]] = [{i: vecs[i]} for i in range(P)]
    with _scope(machine):
        for batch in reduce_sched:
            if not batch:
                continue
            metas = []
            transfers = []
            for s, d in batch:
                ids = sorted(held[s])
                metas.append((s, d, ids))
                transfers.append((s, d, tuple(held[s][b] for b in ids)))
            round_recv = send_round(machine, transfers, phase, op=op)
            for s, d, ids in metas:
                payload = next(p for ss, p in round_recv[d] if ss == s)
                for b, arr in zip(ids, payload):
                    held[d][b] = arr
        for batch in bcast_sched:
            if batch:
                send_round(
                    machine, [(s, d, result_1d) for s, d in batch], phase, op=op
                )


def _allreduce_rhd(
    machine: Machine,
    vecs: Sequence[np.ndarray],
    result_1d: np.ndarray,
    phase: Optional[str],
    algo: str,
) -> None:
    P = machine.nprocs  # power of two (resolve() guarantees it)
    op = f"allreduce.{algo}"
    n = int(result_1d.size)
    itemsize = int(result_1d.itemsize)
    n_rounds = _ceil_log2(P)
    seg = [(0, n)] * P
    sched: List[Tuple[str, List[Tuple[int, int, int, int]]]] = []
    planned_msgs = 0
    planned_bytes = 0
    # reduce-scatter by recursive halving: each rank gives its partner the
    # half of the vector the partner will own
    for k in range(n_rounds):
        d = P >> (k + 1)
        batch = []
        nxt = list(seg)
        for i in range(P):
            j = i ^ d
            lo, hi = seg[i]
            mid = (lo + hi) // 2
            if i < j:
                give, keep = (mid, hi), (lo, mid)
            else:
                give, keep = (lo, mid), (mid, hi)
            batch.append((i, j, give[0], give[1]))
            nxt[i] = keep
        seg = nxt
        sched.append(("halving", batch))
        planned_msgs += len(batch)
        planned_bytes += sum((hi - lo) * itemsize for _, _, lo, hi in batch)
    # allgather of the owned result segments by recursive doubling
    for k in reversed(range(n_rounds)):
        d = P >> (k + 1)
        batch = [(i, i ^ d, seg[i][0], seg[i][1]) for i in range(P)]
        nxt = [
            (min(seg[i][0], seg[i ^ d][0]), max(seg[i][1], seg[i ^ d][1]))
            for i in range(P)
        ]
        seg = nxt
        sched.append(("doubling", batch))
        planned_msgs += len(batch)
        planned_bytes += sum((hi - lo) * itemsize for _, _, lo, hi in batch)
    _begin_staged(machine, "allreduce", algo, phase, planned_msgs, planned_bytes)
    with _scope(machine):
        for tag, batch in sched:
            transfers = []
            for i, j, lo, hi in batch:
                source = vecs[i] if tag == "halving" else result_1d
                transfers.append((i, j, np.ascontiguousarray(source[lo:hi])))
            send_round(machine, transfers, phase, op=op)


# -- rooted binomial trees ----------------------------------------------------


def bcast_staged(
    machine: Machine,
    arr: np.ndarray,
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree broadcast of ``arr`` from ``root`` (data plane only —
    the caller constructs the canonical per-rank return values)."""
    machine.synchronize()
    P = machine.nprocs
    op = f"bcast.{algo}"
    ship = np.ascontiguousarray(np.atleast_1d(arr))
    n_rounds = _ceil_log2(P)
    planned_msgs = max(0, P - 1)
    _begin_staged(
        machine, "bcast", algo, phase, planned_msgs, planned_msgs * int(ship.nbytes)
    )
    act = lambda v: (v + root) % P  # noqa: E731 - tree runs on virtual ranks
    held: Dict[int, np.ndarray] = {root: ship}
    with _scope(machine):
        for k in range(n_rounds):
            step = 1 << k
            batch = [(v, v + step) for v in range(step) if v + step < P]
            if not batch:
                continue
            transfers = [(act(v), act(u), held[act(v)]) for v, u in batch]
            round_recv = send_round(machine, transfers, phase, op=op)
            for v, u in batch:
                payload = next(p for s, p in round_recv[act(u)] if s == act(v))
                held[act(u)] = payload


def gatherv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree gather: leaves forward bundled contributions upward.

    Data plane only — the caller assembles the canonical root result."""
    machine.synchronize()
    P = machine.nprocs
    op = f"gatherv.{algo}"
    sizes = [a.nbytes for a in arrays]
    act = lambda v: (v + root) % P  # noqa: E731
    n_rounds = _ceil_log2(P)
    sym = [{act(v)} for v in range(P)]
    sched: List[List[Tuple[int, int]]] = []
    planned_msgs = 0
    planned_bytes = 0
    for k in range(n_rounds):
        step = 1 << k
        batch = [(v, v - step) for v in range(step, P, 2 * step)]
        sched.append(batch)
        for s, d in batch:
            planned_msgs += 1
            planned_bytes += sum(sizes[b] for b in sym[s])
            sym[d] |= sym[s]
    _begin_staged(machine, "gatherv", algo, phase, planned_msgs, planned_bytes)
    held: List[Dict[int, np.ndarray]] = [{act(v): arrays[act(v)]} for v in range(P)]
    with _scope(machine):
        for batch in sched:
            if not batch:
                continue
            metas = []
            transfers = []
            for s, d in batch:
                ids = sorted(held[s])
                metas.append((s, d, ids))
                transfers.append(
                    (act(s), act(d), tuple(held[s][b] for b in ids))
                )
            round_recv = send_round(machine, transfers, phase, op=op)
            for s, d, ids in metas:
                payload = next(p for ss, p in round_recv[act(d)] if ss == act(s))
                for b, arr in zip(ids, payload):
                    held[d][b] = arr


def scatterv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree scatter: the root pushes subtree bundles down.

    Data plane only — the caller returns the canonical per-rank parts."""
    machine.synchronize()
    P = machine.nprocs
    op = f"scatterv.{algo}"
    sizes = [a.nbytes for a in arrays]
    act = lambda v: (v + root) % P  # noqa: E731
    n_rounds = _ceil_log2(P)
    # round k (top-down): virtual rank v ≡ 0 (mod 2^{k+1}) hands virtual
    # ranks [v+2^k, v+2^{k+1}) their parts to its child v + 2^k
    sched: List[List[Tuple[int, int, List[int]]]] = []
    planned_msgs = 0
    planned_bytes = 0
    for k in reversed(range(n_rounds)):
        step = 1 << k
        batch = []
        for v in range(0, P, 2 * step):
            u = v + step
            if u < P:
                subtree = [act(w) for w in range(u, min(u + step, P))]
                batch.append((v, u, subtree))
                planned_msgs += 1
                planned_bytes += sum(sizes[b] for b in subtree)
        sched.append(batch)
    _begin_staged(machine, "scatterv", algo, phase, planned_msgs, planned_bytes)
    held: List[Dict[int, np.ndarray]] = [dict() for _ in range(P)]
    held[0] = {i: arrays[i] for i in range(P)}
    with _scope(machine):
        for batch in sched:
            if not batch:
                continue
            metas = []
            transfers = []
            for v, u, subtree in batch:
                ids = sorted(subtree)
                metas.append((v, u, ids))
                transfers.append(
                    (act(v), act(u), tuple(held[v][b] for b in ids))
                )
            round_recv = send_round(machine, transfers, phase, op=op)
            for v, u, ids in metas:
                payload = next(p for s, p in round_recv[act(u)] if s == act(v))
                for b, arr in zip(ids, payload):
                    held[u][b] = arr
