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

An algorithm is a schedule
--------------------------
Every algorithm below is a pure function from rank count (and, for
alltoallv, the ``(src, dst)`` routes) to ``rounds``: a list of batches of
``(src, dst, item ids)`` messages over ``items`` (column lists) that start
at their ``origins``.  The one executor, :func:`_run_rounds`, reads the
planned message/byte totals off that schedule, self-reports them to the
auditor (:meth:`CommAuditor.observe_algo_collective
<repro.verify.audit.CommAuditor.observe_algo_collective>`), ships every
non-empty round through :func:`~repro.simmpi.p2p.send_round` inside
:meth:`CommAuditor.algo_scope <repro.verify.audit.CommAuditor.algo_scope>`
and returns what every rank holds.  The plan *is* the schedule that runs;
the ``collective-algo-accounting`` invariant still checks the executor
against the independently audited rounds.  See ``docs/collectives.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


# -- auto selection -----------------------------------------------------------


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
    if algo == "recursive-halving-doubling" and P & (P - 1):
        return "binomial-tree"
    if algo != "auto":
        return algo
    # the *pre-perturbation* model: auto selection must not depend on the
    # chaos seed, or ledgers would diverge between DST cells
    model = machine.nominal_model
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


# -- the round executor -------------------------------------------------------

#: one staged message: ``(src, dst, ids of the items it carries)``
Message = Tuple[int, int, List[int]]


def _run_rounds(
    machine: Machine,
    collective: str,
    algo: str,
    phase: Optional[str],
    items: Sequence[List[np.ndarray]],
    origins: Iterable[int],
    rounds: Sequence[Sequence[Message]],
) -> List[Dict[int, List[np.ndarray]]]:
    """Plan, ship and unpack a staged collective given as a schedule.

    ``items[t]`` is the column list of item ``t``, first held by rank
    ``origins[t]``; ``rounds`` are batches of ``(src, dst, item ids)``
    messages.  Every message ships the tuple of its items' columns in id
    order as one :func:`~repro.simmpi.p2p.send_round` transfer (messages
    keep their batch order; empty batches cost nothing), sender and
    receiver both hold the items afterwards, and a round's messages all
    read the holdings from before the round.  Returns ``held`` with
    ``held[rank][t]`` the columns of item ``t`` as delivered to ``rank``.

    The planned totals are read off the schedule and the item sizes alone
    and self-reported before anything ships; the auditor independently
    re-accounts every round, and the ``collective-algo-accounting``
    invariant asserts the two agree exactly.
    """
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
            inbox = [dict(lst) for lst in send_round(machine, transfers, phase, op=op)]
            for src, dst, ids in batch:
                cols = iter(inbox[dst][src])
                for t in ids:
                    held[dst][t] = list(itertools.islice(cols, len(items[t])))
    return held


# -- schedules ----------------------------------------------------------------
#
# Pure functions of the rank count (and the alltoallv routes): no Machine, no
# payloads.  tests/simmpi/test_algo_schedules.py replays each one symbolically.


def _forward_all(
    nprocs: int, origins: Iterable[int], pair_rounds: Sequence[Sequence[Tuple[int, int]]]
) -> List[List[Message]]:
    """Rounds of ``(src, dst)`` pairs in which every sender forwards
    everything it holds at the start of the round (in item-id order)."""
    held: List[set] = [set() for _ in range(nprocs)]
    for t, rank in enumerate(origins):
        held[rank].add(t)
    rounds = []
    for pairs in pair_rounds:
        batch = [(src, dst, sorted(held[src])) for src, dst in pairs]
        for _src, dst, ids in batch:
            held[dst].update(ids)
        rounds.append(batch)
    return rounds


def _tree_up(nprocs: int, root: int = 0) -> List[List[Tuple[int, int]]]:
    """``(child, parent)`` edges of the binomial tree rooted at ``root``, by
    level: level ``k`` joins virtual rank ``v ≡ 2^k (mod 2^(k+1))`` to
    ``v - 2^k``; virtual rank ``v`` is actual rank ``(v + root) % nprocs``."""
    return [
        [
            ((v + root) % nprocs, (v - step + root) % nprocs)
            for v in range(step, nprocs, 2 * step)
        ]
        for step in (1 << k for k in range(_ceil_log2(nprocs)))
    ]


def _pairwise_rounds(nprocs: int, routes: Sequence[Tuple[int, int]]) -> List[List[Message]]:
    """P−1 exchange rounds: round ``r`` pairs rank ``i`` with ``i XOR r`` on a
    power-of-two rank count and with ``i + r`` otherwise; item ``t`` (route
    ``routes[t]``) ships in the one round that pairs its endpoints."""
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


def _bruck_rounds(nprocs: int, routes: Sequence[Tuple[int, int]]) -> List[List[Message]]:
    """⌈log₂P⌉ forwarding rounds: in round ``k`` every rank ships the items
    whose remaining cyclic distance has bit ``k`` set to the rank ``2^k``
    ahead, as one message."""
    at = [src for src, _dst in routes]
    rounds = []
    for step in (1 << k for k in range(_ceil_log2(nprocs))):
        moving: List[List[int]] = [[] for _ in range(nprocs)]
        for t, (_src, dst) in enumerate(routes):
            if ((dst - at[t]) % nprocs) & step:
                moving[at[t]].append(t)
                at[t] = (at[t] + step) % nprocs
        rounds.append(
            [(i, (i + step) % nprocs, ids) for i, ids in enumerate(moving) if ids]
        )
    return rounds


def _ring_rounds(nprocs: int) -> List[List[Message]]:
    """P−1 neighbor rounds: in round ``r`` rank ``i`` passes on the block it
    received in round ``r − 1`` (its own in round 1)."""
    return [
        [(i, (i + 1) % nprocs, [(i - r + 1) % nprocs]) for i in range(nprocs)]
        for r in range(1, nprocs)
    ]


def _doubling_rounds(nprocs: int) -> List[List[Message]]:
    """⌈log₂P⌉ rounds: XOR partners on powers of two, the dissemination
    variant (``i → i + 2^k``) otherwise."""
    pow2 = nprocs & (nprocs - 1) == 0
    return _forward_all(
        nprocs,
        range(nprocs),
        [
            [(i, (i ^ step) if pow2 else (i + step) % nprocs) for i in range(nprocs)]
            for step in (1 << k for k in range(_ceil_log2(nprocs)))
        ],
    )


def _gather_rounds(nprocs: int, root: int = 0) -> List[List[Message]]:
    """Binomial reduce-up: each rank forwards its accumulated bundle (its own
    item and its subtree's) to its parent; P−1 messages."""
    return _forward_all(nprocs, range(nprocs), _tree_up(nprocs, root))


def _scatter_rounds(nprocs: int, root: int) -> List[List[Message]]:
    """The gather run backwards: parents push each child its subtree's parts."""
    return [
        [(parent, child, ids) for child, parent, ids in batch]
        for batch in reversed(_gather_rounds(nprocs, root))
    ]


def _allreduce_tree_rounds(nprocs: int) -> List[List[Message]]:
    """Reduce-up of contribution items ``0..P−1``, then item ``P`` (the
    result, held by rank 0) broadcast down the reversed tree; 2(P−1)
    messages."""
    return _gather_rounds(nprocs) + [
        [(parent, child, [nprocs]) for child, parent in level]
        for level in reversed(_tree_up(nprocs))
    ]


def _halving_doubling_rounds(
    nprocs: int, n: int
) -> Tuple[List[List[Message]], List[Tuple[int, int]]]:
    """Reduce-scatter by recursive halving, then allgather by recursive
    doubling, on a power-of-two rank count over a length-``n`` vector.

    Every message mints its own item: returns the rounds and, per item, the
    ``[lo, hi)`` vector slice it carries (items of the first ⌈log₂P⌉ rounds
    slice the sender's contribution, the rest slice the result).
    """
    seg = [(0, n)] * nprocs
    rounds: List[List[Message]] = []
    slices: List[Tuple[int, int]] = []
    distances = [nprocs >> (k + 1) for k in range(_ceil_log2(nprocs))]
    for d in distances:
        # each rank gives its partner the half the partner will own
        batch = []
        for i in range(nprocs):
            lo, hi = seg[i]
            mid = (lo + hi) // 2
            give, seg[i] = ((mid, hi), (lo, mid)) if i < i ^ d else ((lo, mid), (mid, hi))
            batch.append((i, i ^ d, [len(slices)]))
            slices.append(give)
        rounds.append(batch)
    for d in reversed(distances):
        batch = []
        for i in range(nprocs):
            batch.append((i, i ^ d, [len(slices)]))
            slices.append(seg[i])
        seg = [
            (min(seg[i][0], seg[i ^ d][0]), max(seg[i][1], seg[i ^ d][1]))
            for i in range(nprocs)
        ]
        rounds.append(batch)
    return rounds, slices


def _bcast_rounds(nprocs: int, root: int) -> List[List[Message]]:
    """Doubling broadcast of item 0: in round ``k`` every virtual rank below
    ``2^k`` sends to the rank ``2^k`` above it; P−1 messages."""
    return [
        [
            ((v + root) % nprocs, (v + step + root) % nprocs, [0])
            for v in range(min(step, nprocs - step))
        ]
        for step in (1 << k for k in range(_ceil_log2(nprocs)))
    ]


# -- entry points -------------------------------------------------------------


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
    schedule = {"pairwise": _pairwise_rounds, "bruck": _bruck_rounds}[algo]
    held = _run_rounds(
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


def allgatherv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    phase: Optional[str],
    algo: str,
) -> List[np.ndarray]:
    """Staged allgatherv; per-rank results equal ``direct``'s bitwise."""
    P = machine.nprocs
    schedule = {"ring": _ring_rounds, "recursive-doubling": _doubling_rounds}[algo]
    held = _run_rounds(
        machine, "allgatherv", algo, phase, [[a] for a in arrays], range(P), schedule(P)
    )
    return [np.concatenate([held[i][b][0] for b in range(P)]) for i in range(P)]


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
    P = machine.nprocs
    if algo == "binomial-tree":
        items = [[v] for v in vecs] + [[result_1d]]
        origins = [*range(P), 0]
        rounds = _allreduce_tree_rounds(P)
    else:
        # power-of-two rank counts only (resolve() guarantees it)
        rounds, slices = _halving_doubling_rounds(P, int(result_1d.size))
        origins = [src for batch in rounds for src, _dst, _ids in batch]
        halving = len(slices) // 2
        items = [
            [np.ascontiguousarray((vecs[src] if t < halving else result_1d)[lo:hi])]
            for t, (src, (lo, hi)) in enumerate(zip(origins, slices))
        ]
    _run_rounds(machine, "allreduce", algo, phase, items, origins, rounds)


def bcast_staged(
    machine: Machine,
    arr: np.ndarray,
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree broadcast of ``arr`` from ``root`` (data plane only —
    the caller constructs the canonical per-rank return values)."""
    ship = np.ascontiguousarray(np.atleast_1d(arr))
    rounds = _bcast_rounds(machine.nprocs, root)
    _run_rounds(machine, "bcast", algo, phase, [[ship]], [root], rounds)


def gatherv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree gather: leaves forward bundled contributions upward.

    Data plane only — the caller assembles the canonical root result."""
    P = machine.nprocs
    rounds = _gather_rounds(P, root)
    _run_rounds(machine, "gatherv", algo, phase, [[a] for a in arrays], range(P), rounds)


def scatterv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree scatter: the root pushes subtree bundles down.

    Data plane only — the caller returns the canonical per-rank parts."""
    P = machine.nprocs
    rounds = _scatter_rounds(P, root)
    _run_rounds(machine, "scatterv", algo, phase, [[a] for a in arrays], [root] * P, rounds)
