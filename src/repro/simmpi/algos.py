"""Per-collective algorithm engines with topology-aware staged charging.

The default collectives in :mod:`repro.simmpi.collectives` charge each call
with one closed-form LogGP formula (the ``direct`` algorithm).  This module
provides the *mechanistic* alternatives an MPI implementation actually
chooses between, charged as explicit rounds of
:func:`repro.simmpi.p2p.charge_round` messages — every staged message has
the **real byte size** of the data it would forward and is charged
individually with its topology hop distance, so the small-message/
large-message crossovers between algorithms emerge from the machine model
instead of being asserted by a formula.

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
results to ``direct``** on both execution backends.  The engines charge and
verify a schedule; they move no data.  The collective that called them
delivers once, the way ``direct`` does (an exchange travels through the
execution backend after its rounds were charged and audited; the
``allreduce`` result is always the canonical rank-ordered reduction).  Only
modeled clocks and per-phase message/byte totals may differ between
algorithms.

``auto`` resolves per call from the message volume, the rank count and the
topology diameter using the machine's **nominal** (pre-perturbation) cost
model, so the selection is identical across chaos seeds and the DST ledger
fingerprints stay schedule-independent.

An algorithm is a schedule
--------------------------
Every algorithm below is a pure function from rank count (and, for
alltoallv, the ``(src, dst)`` route arrays) to ``rounds``: a list of
:data:`Round` array tuples ``(src, dst, ptr, ids)`` — message ``k`` of a
round travels ``src[k] -> dst[k]`` and carries the items
``ids[ptr[k]:ptr[k + 1]]`` — over items known only by their byte ``sizes``
and the ranks (``origins``) they start at.  The one executor,
:func:`_run_rounds`, reads the per-message bytes and the planned totals
off that schedule, checks that the schedule leaves every item where the
collective requires it, self-reports the totals to the auditor
(:meth:`CommAuditor.observe_algo_collective
<repro.verify.audit.CommAuditor.observe_algo_collective>`) and charges
every non-empty round through :func:`~repro.simmpi.p2p.charge_round` inside
:meth:`CommAuditor.algo_scope <repro.verify.audit.CommAuditor.algo_scope>`.
The plan *is* the schedule that is charged; the
``collective-algo-accounting`` invariant still checks the executor against
the independently audited rounds.  See ``docs/collectives.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.machine import Machine
from repro.simmpi.p2p import charge_round

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


def _ceil_log2(nprocs: int) -> int:
    return int(np.ceil(np.log2(nprocs))) if nprocs > 1 else 0


# -- auto selection -----------------------------------------------------------


def _latency_term(model, diameter: int) -> float:
    return model.overhead + model.latency + model.hop_latency * (diameter / 2.0)


def resolve(machine: Machine, collective: str, algo: str, **metrics) -> str:
    """Resolve ``algo`` (possibly ``"auto"``) to a concrete algorithm name.

    ``metrics`` carries the per-call sizing the selector needs:
    ``triples=`` (the ``(src, dst, nbytes)`` message arrays) for alltoallv,
    ``nbytes=`` (total or item bytes) for the other collectives.
    Non-``auto`` names pass through unchanged except for documented
    fallbacks (``recursive-halving-doubling`` on a non-power-of-two rank
    count runs as ``binomial-tree``).
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
        src, dst, sizes = metrics["triples"]
        remote = src != dst
        n_msgs = int(remote.sum())
        total = int(sizes[remote].sum())
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

#: one staged round as arrays ``(src, dst, ptr, ids)``: message ``k`` travels
#: ``src[k] -> dst[k]`` and carries the items ``ids[ptr[k]:ptr[k + 1]]``
Round = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _round(messages: Sequence[Tuple[int, int, Sequence[int]]]) -> Round:
    """A batch of ``(src, dst, item ids)`` messages in :data:`Round` form."""
    return (
        np.array([src for src, _dst, _ids in messages], dtype=np.int64),
        np.array([dst for _src, dst, _ids in messages], dtype=np.int64),
        np.cumsum([0] + [len(ids) for _src, _dst, ids in messages], dtype=np.int64),
        np.array([t for _src, _dst, ids in messages for t in ids], dtype=np.int64),
    )


def _run_rounds(
    machine: Machine,
    collective: str,
    algo: str,
    phase: Optional[str],
    sizes: Sequence[int],
    origins: Sequence[int],
    rounds: Sequence[Round],
    wanted: Tuple[Sequence[int], Sequence[int]],
) -> None:
    """Plan, verify and charge a staged collective given as a schedule.

    ``sizes[t]`` is the byte size of item ``t``, first held by rank
    ``origins[t]``; ``rounds`` are :data:`Round` tuples.  A message is as
    long as the items it carries and is charged as one
    :func:`~repro.simmpi.p2p.charge_round` transfer (messages keep their
    round order; empty rounds cost nothing); sender and receiver both hold
    its items afterwards.  ``wanted`` names, as parallel ``(ranks, items)``
    arrays, where the collective requires items to end up: a schedule that
    leaves one of them undelivered is a bug in this module and raises
    before anything is charged — the data itself travels separately, so
    nothing else would notice.

    The planned totals are read off the schedule and the item sizes alone
    and self-reported before any round is charged; the auditor
    independently re-accounts every round, and the
    ``collective-algo-accounting`` invariant asserts the two agree exactly.
    """
    P = machine.nprocs
    sizes = np.asarray(sizes, dtype=np.int64)
    rounds = [r for r in rounds if r[0].shape[0]]
    nbytes = []  # per round, the byte size of every message: its items' sizes summed
    for _src, _dst, ptr, ids in rounds:
        carried = np.concatenate(([0], np.cumsum(sizes[ids])))
        nbytes.append(carried[ptr[1:]] - carried[ptr[:-1]])
    # an (item, rank) pair is held if the item started there or a message brought it
    held = np.sort(np.concatenate(
        [np.arange(sizes.shape[0]) * P + np.asarray(origins, dtype=np.int64)]
        + [ids * P + np.repeat(dst, np.diff(ptr)) for _src, dst, ptr, ids in rounds]
    ))
    ranks, items = (np.asarray(a, dtype=np.int64) for a in wanted)
    want = items * P + ranks
    if want.size and not np.array_equal(
        held[np.minimum(np.searchsorted(held, want), held.shape[0] - 1)], want
    ):
        raise RuntimeError(f"{collective}.{algo} schedule leaves an item undelivered")
    messages = sum(r[0].shape[0] for r in rounds)
    total = sum(int(b.sum()) for b in nbytes)
    auditor = machine.auditor
    # no participant can leave a collective before the last one enters it
    machine.synchronize()
    if auditor is not None:
        auditor.observe_algo_collective(collective, algo, phase, messages, total)
    machine.count("comm.algo.messages", messages, collective=collective, algo=algo)
    machine.count("comm.algo.bytes", total, collective=collective, algo=algo)
    op = f"{collective}.{algo}"
    with auditor.algo_scope() if auditor is not None else contextlib.nullcontext():
        for (src, dst, _ptr, _ids), size in zip(rounds, nbytes):
            charge_round(machine, src, dst, size, phase, op=op)


# -- schedules ----------------------------------------------------------------
#
# Pure functions of the rank count (and the alltoallv routes): no Machine, no
# sizes.  tests/simmpi/test_algo_schedules.py replays each one symbolically.


def _forward_all(
    nprocs: int, origins: Iterable[int], pair_rounds: Sequence[Sequence[Tuple[int, int]]]
) -> List[Round]:
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
        rounds.append(_round(batch))
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


def _pairwise_rounds(nprocs: int, src: np.ndarray, dst: np.ndarray) -> List[Round]:
    """P−1 exchange rounds: round ``r`` pairs rank ``i`` with ``i XOR r`` on a
    power-of-two rank count and with ``i + r`` otherwise; item ``t`` (route
    ``src[t] -> dst[t]``, pairs unique) ships in the one round that pairs its
    endpoints, a round's messages in sender order."""
    pow2 = nprocs & (nprocs - 1) == 0
    pairing = (src ^ dst) if pow2 else (dst - src) % nprocs
    order = np.lexsort((src, pairing))
    bounds = np.searchsorted(pairing[order], np.arange(1, nprocs + 1)).tolist()
    return [
        (src[ids], dst[ids], np.arange(ids.shape[0] + 1), ids)
        for ids in (order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
    ]


def _bruck_rounds(nprocs: int, src: np.ndarray, dst: np.ndarray) -> List[Round]:
    """⌈log₂P⌉ forwarding rounds: in round ``k`` every rank ships the items
    whose remaining cyclic distance has bit ``k`` set to the rank ``2^k``
    ahead, as one message (items in id order)."""
    at = np.array(src, dtype=np.int64)
    rounds = []
    for step in (1 << k for k in range(_ceil_log2(nprocs))):
        moving = np.flatnonzero(((dst - at) % nprocs) & step)
        holder = at[moving]
        load = np.bincount(holder, minlength=nprocs)
        senders = np.flatnonzero(load)
        rounds.append((
            senders,
            (senders + step) % nprocs,
            np.concatenate(([0], np.cumsum(load[senders]))),
            moving[np.argsort(holder, kind="stable")],
        ))
        at[moving] = (holder + step) % nprocs
    return rounds


def _ring_rounds(nprocs: int) -> List[Round]:
    """P−1 neighbor rounds: in round ``r`` rank ``i`` passes on the block it
    received in round ``r − 1`` (its own in round 1)."""
    i = np.arange(nprocs)
    return [
        (i, (i + 1) % nprocs, np.arange(nprocs + 1), (i - r + 1) % nprocs)
        for r in range(1, nprocs)
    ]


def _doubling_rounds(nprocs: int) -> List[Round]:
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


def _gather_rounds(nprocs: int, root: int = 0) -> List[Round]:
    """Binomial reduce-up: each rank forwards its accumulated bundle (its own
    item and its subtree's) to its parent; P−1 messages."""
    return _forward_all(nprocs, range(nprocs), _tree_up(nprocs, root))


def _scatter_rounds(nprocs: int, root: int) -> List[Round]:
    """The gather run backwards: parents push each child its subtree's parts."""
    return [
        (parent, child, ptr, ids)
        for child, parent, ptr, ids in reversed(_gather_rounds(nprocs, root))
    ]


def _allreduce_tree_rounds(nprocs: int) -> List[Round]:
    """Reduce-up of contribution items ``0..P−1``, then item ``P`` (the
    result, held by rank 0) broadcast down the reversed tree; 2(P−1)
    messages."""
    return _gather_rounds(nprocs) + [
        _round([(parent, child, [nprocs]) for child, parent in level])
        for level in reversed(_tree_up(nprocs))
    ]


def _halving_doubling_rounds(
    nprocs: int, n: int
) -> Tuple[List[Round], List[Tuple[int, int]]]:
    """Reduce-scatter by recursive halving, then allgather by recursive
    doubling, on a power-of-two rank count over a length-``n`` vector.

    Every message mints its own item: returns the rounds and, per item, the
    ``[lo, hi)`` vector slice it carries (items of the first ⌈log₂P⌉ rounds
    slice the sender's contribution, the rest slice the result).
    """
    seg = [(0, n)] * nprocs
    rounds: List[Round] = []
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
        rounds.append(_round(batch))
    for d in reversed(distances):
        batch = []
        for i in range(nprocs):
            batch.append((i, i ^ d, [len(slices)]))
            slices.append(seg[i])
        seg = [
            (min(seg[i][0], seg[i ^ d][0]), max(seg[i][1], seg[i ^ d][1]))
            for i in range(nprocs)
        ]
        rounds.append(_round(batch))
    return rounds, slices


def _bcast_rounds(nprocs: int, root: int) -> List[Round]:
    """Doubling broadcast of item 0: in round ``k`` every virtual rank below
    ``2^k`` sends to the rank ``2^k`` above it; P−1 messages."""
    return [
        _round([
            ((v + root) % nprocs, (v + step + root) % nprocs, [0])
            for v in range(min(step, nprocs - step))
        ])
        for step in (1 << k for k in range(_ceil_log2(nprocs)))
    ]


# -- entry points -------------------------------------------------------------
#
# Charge only: the calling collective builds (or delivers) the results.


def alltoallv_staged(
    machine: Machine,
    triples: Tuple[np.ndarray, np.ndarray, np.ndarray],
    phase: Optional[str],
    *,
    count_exchange: str,
    algo: str,
) -> None:
    """Staged alltoallv: ``pairwise`` or ``bruck`` rounds over the
    ``(src, dst, nbytes)`` message triples of the exchange.

    Self-sends never enter a round (local move, free — exactly like the
    direct path).
    """
    P = machine.nprocs
    if count_exchange == "dense":
        # the MPI_Alltoall count exchange preceding a general redistribution
        # — identical to the term the direct path folds into its charge; it
        # starts when the last rank has entered, like the rounds after it
        machine.synchronize()
        t = machine.model.bruck_alltoall_time(P, 8.0, machine.topology.diameter())
        machine.advance(
            t * machine.comm_factor(), phase, messages=0, nbytes=0, op=f"alltoallv.{algo}"
        )
    src, dst, sizes = triples
    remote = src != dst
    src, dst = src[remote], dst[remote]
    schedule = {"pairwise": _pairwise_rounds, "bruck": _bruck_rounds}[algo]
    _run_rounds(
        machine, "alltoallv", algo, phase, sizes[remote], src, schedule(P, src, dst),
        (dst, np.arange(src.shape[0])),
    )


def allgatherv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    phase: Optional[str],
    algo: str,
) -> None:
    """Staged allgatherv: every rank ends up holding every contribution."""
    P = machine.nprocs
    schedule = {"ring": _ring_rounds, "recursive-doubling": _doubling_rounds}[algo]
    everywhere = (np.repeat(np.arange(P), P), np.tile(np.arange(P), P))
    _run_rounds(
        machine, "allgatherv", algo, phase, [a.nbytes for a in arrays], range(P),
        schedule(P), everywhere,
    )


def allreduce_staged(
    machine: Machine,
    contribution: np.ndarray,
    result: np.ndarray,
    phase: Optional[str],
    algo: str,
) -> None:
    """Stage the communication of an allreduce whose result is already known.

    ``contribution`` is one rank's contribution in the reduction's working
    dtype (all have its size) and ``result`` the canonical reduction over
    them — computed by the caller with the exact rank-ordered operation the
    ``direct`` path uses, because a staged tree reduction would reassociate
    floating-point sums and break the bitwise contract.
    """
    P = machine.nprocs
    if algo == "binomial-tree":
        sizes = [contribution.nbytes] * P + [result.nbytes]
        origins = [*range(P), 0]
        rounds = _allreduce_tree_rounds(P)
        # the contributions reach rank 0, the result reaches everyone
        wanted = ([0] * P + [*range(P)], [*range(P)] + [P] * P)
    else:
        # power-of-two rank counts only (resolve() guarantees it)
        rounds, slices = _halving_doubling_rounds(P, int(result.size))
        origins = np.concatenate([src for src, _dst, _ptr, _ids in rounds])
        halving = len(slices) // 2
        sizes = [
            (hi - lo) * (contribution if t < halving else result).itemsize
            for t, (lo, hi) in enumerate(slices)
        ]
        # every message mints the item it carries
        wanted = (np.concatenate([dst for _src, dst, _ptr, _ids in rounds]), range(len(slices)))
    _run_rounds(machine, "allreduce", algo, phase, sizes, origins, rounds, wanted)


def bcast_staged(
    machine: Machine,
    arr: np.ndarray,
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree broadcast of ``arr`` from ``root``."""
    P = machine.nprocs
    rounds = _bcast_rounds(P, root)
    _run_rounds(machine, "bcast", algo, phase, [arr.nbytes], [root], rounds, (range(P), [0] * P))


def gatherv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree gather: leaves forward bundled contributions upward."""
    P = machine.nprocs
    rounds = _gather_rounds(P, root)
    _run_rounds(
        machine, "gatherv", algo, phase, [a.nbytes for a in arrays], range(P), rounds,
        ([root] * P, range(P)),
    )


def scatterv_staged(
    machine: Machine,
    arrays: Sequence[np.ndarray],
    root: int,
    phase: Optional[str],
    algo: str,
) -> None:
    """Binomial-tree scatter: the root pushes subtree bundles down."""
    P = machine.nprocs
    rounds = _scatter_rounds(P, root)
    _run_rounds(
        machine, "scatterv", algo, phase, [a.nbytes for a in arrays], [root] * P, rounds,
        (range(P), range(P)),
    )
