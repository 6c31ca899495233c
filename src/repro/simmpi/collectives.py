"""Collective communication primitives.

All primitives move **real data** between per-rank NumPy arrays and charge
modeled time to the machine clocks.  The data plane uses the following
conventions:

* a *distributed value* is a Python list of length ``nprocs`` whose ``i``-th
  entry is rank ``i``'s local data;
* sparse send specifications are ``list[dict[int, payload]]`` — rank ``i``
  sends ``sends[i][j]`` to rank ``j``; absent keys mean "nothing to send"
  and cost nothing beyond the count exchange;
* a *payload* is an ``ndarray`` or a tuple of ``ndarray`` columns that travel
  together in one message (structure-of-arrays particle data); its size is
  the sum of the column ``nbytes``;
* the all-to-all primitives also take the buffer form of ``MPI_Alltoallv``,
  an :class:`Exchange`: one set of column buffers, a row index and a CSR
  message table sorted by ``(src, dst)`` — one object per exchange instead
  of one payload object per message.

The all-to-all primitives implement the cost semantics of the paper's
fine-grained data redistribution operation [13,14]: a dense
``MPI_Alltoall`` count exchange followed by point-to-point transfers of the
non-empty blocks.  ``count_exchange="sparse"`` models the neighborhood
variant (Sect. III-B) where the communication structure is known a priori
and the dense count exchange is skipped — this is the primitive whose cost
advantage produces the Fig. 9 (right) crossover.

Algorithm engines
-----------------
By default every collective charges one closed-form LogGP formula (the
``direct`` algorithm — byte-identical to the historical behavior).  With
:meth:`Machine.set_collective_algos
<repro.simmpi.machine.Machine.set_collective_algos>` the collectives route
through the staged per-algorithm engines of :mod:`repro.simmpi.algos`
(pairwise/Bruck alltoallv, ring/recursive-doubling allgatherv,
binomial-tree/recursive-halving-doubling allreduce, binomial trees for the
rooted collectives) which charge the same traffic as explicit
:func:`~repro.simmpi.p2p.charge_round` rounds with per-hop charging.  An
engine charges and verifies a schedule; the data is delivered once, after
the rounds, exactly as on the ``direct`` path.  Every algorithm returns
bitwise-identical payloads; only modeled clocks and message/byte totals
differ.

Delivery aliasing contract
--------------------------
An :class:`Exchange` comes back as fresh column buffers on every path and
every backend.  The payloads of a ``list[dict]`` table are delivered *by
reference* under the default in-process data plane (the received array
**is** the sender's array object) and as fresh decoded copies under a
process backend — except self-sends, which return the original object on
every backend (MPI self-send semantics).  Receivers therefore MUST NOT
mutate received payloads in place; doing so corrupts sender state under the
in-process engine only and is exactly the class of bug the cross-backend
differential tests exist to catch.  Treat every received payload as
read-only and copy before writing.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simmpi.machine import Machine

__all__ = [
    "Exchange",
    "payload_nbytes",
    "message_triples",
    "deliver_inprocess",
    "alltoallv",
    "neighborhood_alltoallv",
    "allgatherv",
    "allgather_scalars",
    "allreduce",
    "bcast",
    "gatherv",
    "scatterv",
]

Payload = object  # ndarray or tuple/list of ndarrays


def payload_nbytes(payload: Payload) -> int:
    """Total byte size of a payload (array or tuple of arrays)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (tuple, list)):
        return sum(p.nbytes for p in payload)
    raise TypeError(f"unsupported payload type {type(payload)!r}")


@dataclasses.dataclass(frozen=True)
class Exchange:
    """The buffer form of ``MPI_Alltoallv``: one exchange as a set of arrays.

    ``columns`` are column buffers over the rows of *all* ranks (equal
    leading dimension, any row layout).  Message ``k`` travels from rank
    ``msg_src[k]`` to rank ``msg_dst[k]`` and carries, for every column, the
    rows ``row_index[row_ptr[k]:row_ptr[k + 1]]`` in that order — a CSR
    table: ``row_ptr`` has one more entry than there are messages, starts at
    0 and ends at ``len(row_index)``.  The table is sorted by ``(src, dst)``
    and names every pair at most once, so a receiver's messages are in
    source order once grouped by destination (the per-source receive-block
    order of MPI, which the resort indices rely on).

    Handed to :func:`alltoallv` / :func:`neighborhood_alltoallv` in place of
    the ``list[dict]`` send table, it is charged by the same formula from
    the same ``(src, dst, nbytes)`` triples and comes back as
    ``(columns, recv_offsets)``: rank ``j`` received the rows
    ``recv_offsets[j]:recv_offsets[j + 1]`` of the returned column buffers,
    grouped by source rank.

    ``keep``, when set, names the ascending receive positions (of the rows
    :meth:`recv_rows` lists without it) to deliver; the rest are charged,
    audited and traced as travelling but not copied.
    """

    columns: Tuple[np.ndarray, ...]
    row_index: np.ndarray
    msg_src: np.ndarray
    msg_dst: np.ndarray
    row_ptr: np.ndarray
    keep: Optional[np.ndarray] = None

    @property
    def row_nbytes(self) -> int:
        """Bytes one row occupies across all columns."""
        return sum(c.dtype.itemsize * int(np.prod(c.shape[1:])) for c in self.columns)

    def validate(self, nprocs: int) -> None:
        """Reject a malformed table before anything is audited or charged."""
        n_messages = self.msg_src.shape[0]
        for name in ("row_index", "msg_src", "msg_dst", "row_ptr"):
            arr = getattr(self, name)
            if arr.ndim != 1 or arr.dtype != np.int64:
                raise ValueError(f"Exchange.{name} must be a 1-D int64 array")
        if self.msg_dst.shape[0] != n_messages or self.row_ptr.shape[0] != n_messages + 1:
            raise ValueError(
                f"Exchange table is ragged: {n_messages} sources, "
                f"{self.msg_dst.shape[0]} destinations, {self.row_ptr.shape[0]} row pointers"
            )
        if (
            self.row_ptr[0] != 0
            or self.row_ptr[-1] != self.row_index.shape[0]
            or np.any(np.diff(self.row_ptr) < 0)
        ):
            raise ValueError("Exchange.row_ptr must rise from 0 to len(row_index)")
        lengths = {c.shape[0] for c in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"Exchange columns differ in length: {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 0
        if self.row_index.size and (
            self.row_index.min() < 0 or self.row_index.max() >= n_rows
        ):
            raise ValueError("Exchange.row_index points outside the column buffers")
        keep = self.keep
        if keep is not None and not (
            keep.ndim == 1 and keep.dtype == np.int64 and np.all(np.diff(keep) > 0)
            and (not keep.size or 0 <= keep[0] and keep[-1] < self.row_index.shape[0])
        ):
            raise ValueError("Exchange.keep must be ascending, distinct int64 receive positions")
        if n_messages == 0:
            return
        if self.msg_src.min() < 0 or self.msg_src.max() >= nprocs:
            raise ValueError(f"Exchange.msg_src outside [0, {nprocs})")
        bad = np.flatnonzero((self.msg_dst < 0) | (self.msg_dst >= nprocs))
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"rank {int(self.msg_src[k])} sends to invalid rank {int(self.msg_dst[k])}"
            )
        if np.any(np.diff(self.msg_src * np.int64(nprocs) + self.msg_dst) <= 0):
            raise ValueError("Exchange messages must be sorted by (src, dst), pairs unique")

    def _receive_order(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(by_dst, lens, starts)``: the messages in the order the receive
        buffer holds them, their lengths and where each starts in it."""
        # the table is source-sorted, so a stable sort by destination leaves
        # every receiver's messages in source order
        by_dst = np.argsort(self.msg_dst, kind="stable")
        lens = np.diff(self.row_ptr)[by_dst]
        return by_dst, lens, np.cumsum(lens) - lens

    def recv_rows(self, nprocs: int) -> Tuple[np.ndarray, np.ndarray]:
        """Which buffer row every received row (every kept one, when
        :attr:`keep` is set) is a copy of, in ``(dst, src)`` order, and the
        ``recv_offsets`` splitting them by receiver.

        The send-side order ``row_index`` and the regrouping of whole
        messages by destination are composed into one index vector, so no
        send buffer is materialized between the two; a kept subset is found
        message by message (one bisection each), never cut out of the whole.
        """
        by_dst, lens, starts = self._receive_order()
        rows_to = np.zeros(nprocs, dtype=np.int64)
        np.add.at(rows_to, self.msg_dst, np.diff(self.row_ptr))
        recv_offsets = np.concatenate(([0], np.cumsum(rows_to)))
        if self.keep is None:
            positions = np.arange(self.row_index.shape[0])
        else:
            positions = self.keep
            lens = np.diff(np.searchsorted(positions, np.append(starts, self.row_index.shape[0])))
            recv_offsets = np.searchsorted(positions, recv_offsets)
        gather = np.repeat(self.row_ptr[:-1][by_dst] - starts, lens)
        gather += positions
        # every index is in range; ``clip`` lets the gather overwrite its own
        # index vector unbuffered (entry i is read before entry i is written)
        np.take(self.row_index, gather, out=gather, mode="clip")
        return gather, recv_offsets

    def recv_positions(self, positions: np.ndarray) -> np.ndarray:
        """Where the rows at the ascending route ``positions`` (indices into
        ``row_index``) land among the rows :meth:`recv_rows` lists, ascending.

        Message by message: one bisection per message finds its share of
        ``positions``, and the shares move whole, in receive order, each by
        its message's offset — no route-sized array is made.
        """
        by_dst, _lens, starts = self._receive_order()
        route_starts = self.row_ptr[:-1][by_dst]
        cut = np.searchsorted(positions, self.row_ptr)
        count = np.diff(cut)[by_dst]
        index = np.repeat(cut[:-1][by_dst] - (np.cumsum(count) - count), count)
        index += np.arange(positions.shape[0])
        out = positions[index]
        out += np.repeat(starts - route_starts, count)
        return out

    def deliver(self, nprocs: int) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        """The received rows, as one gather per column into fresh buffers."""
        rows, recv_offsets = self.recv_rows(nprocs)
        # np.take copies multi-dimensional rows several times faster than c[rows]
        return tuple(np.take(c, rows, axis=0) for c in self.columns), recv_offsets


SendTable = Union[Sequence[Dict[int, Payload]], Exchange]


def message_triples(sends: SendTable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten either send-table form to ``(src, dst, nbytes)`` int64 arrays,
    one entry per message, self-sends included — what the all-to-all charge
    and the auditor's recomputation are both made from."""
    if isinstance(sends, Exchange):
        return sends.msg_src, sends.msg_dst, np.diff(sends.row_ptr) * sends.row_nbytes
    table = np.array(
        [
            (src, dst, payload_nbytes(payload))
            for src, targets in enumerate(sends)
            for dst, payload in targets.items()
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2]


def _validate_sends(nprocs: int, sends: Sequence[Dict[int, Payload]]) -> None:
    """Reject invalid destination ranks *before* any auditing or charging.

    Both execution backends must raise the same ``ValueError`` with no
    auditor ledger entry and no clock movement for a rejected call —
    historically only the in-process delivery loop checked targets, after
    the auditor had observed the sends and costs were charged.
    """
    for src, targets in enumerate(sends):
        for dst in targets:
            if not 0 <= dst < nprocs:
                raise ValueError(f"rank {src} sends to invalid rank {dst}")


def _staged_engine(machine: Machine, collective: str, **sizing):
    """The staged engine this ``collective`` call must run, bound to its
    resolved algorithm — or ``None`` for the closed-form ``direct`` path.

    ``None`` is the only possibility when no
    :class:`~repro.simmpi.algos.CollectiveAlgos` is attached, or on a
    single-rank machine where no algorithm stages any message.  ``sizing``
    is what ``auto`` resolves from (``triples=`` or ``nbytes=``); every
    resolution, including ``auto`` falling back to ``direct``, is counted.
    """
    algos = machine.collective_algos
    if algos is None or machine.nprocs == 1 or getattr(algos, collective) == "direct":
        return None
    from repro.simmpi import algos as engines

    algo = engines.resolve(machine, collective, getattr(algos, collective), **sizing)
    machine.count("comm.algo.calls", collective=collective, algo=algo)
    if algo == "direct":
        return None
    return functools.partial(getattr(engines, f"{collective}_staged"), algo=algo)


def _charge_alltoall(
    machine: Machine,
    triples: Tuple[np.ndarray, np.ndarray, np.ndarray],
    phase: Optional[str],
    count_exchange: str,
) -> None:
    """Clock/trace accounting shared by the all-to-all variants.

    Every sum below is over integer-valued byte counts far below 2**53, so
    the result does not depend on the order the messages are listed in.
    """
    P = machine.nprocs
    model = machine.model
    topo = machine.topology

    # the accounting is vectorized over the (src, dst, size) message triples
    # (topology hop lookups batched into one call); self-sends are local moves
    srcs, dsts, sizes = triples
    remote = srcs != dsts
    srcs = srcs[remote]
    dsts = dsts[remote]
    sizes = sizes[remote].astype(np.float64)
    n_messages = int(srcs.shape[0])

    n_targets = np.bincount(srcs, minlength=P).astype(np.int64)
    send_bytes = np.bincount(srcs, weights=sizes, minlength=P)
    recv_bytes = np.bincount(dsts, weights=sizes, minlength=P)
    if n_messages:
        hops = machine.topology.hops(srcs, dsts)
        inter = hops > 0
        total_internode = float(sizes[inter].sum())
        hop_weight = float(sizes.sum())
        avg_hops = (
            float((hops * sizes).sum()) / hop_weight
            if hop_weight > 0
            else float(topo.diameter()) / 2.0
        )
    else:
        total_internode = 0.0
        avg_hops = float(topo.diameter()) / 2.0

    machine.synchronize()
    per_rank = model.alltoall_rank_time(n_targets, send_bytes, recv_bytes, avg_hops)
    per_rank = per_rank + model.copy_time(send_bytes + recv_bytes)
    if count_exchange == "dense":
        # MPI_Alltoall of one count integer (8 bytes) per peer, modeled as
        # Bruck's algorithm (what MPI implementations use for tiny items)
        per_rank = per_rank + model.bruck_alltoall_time(P, 8.0, topo.diameter())
    bis = model.bisection_time(total_internode, topo.bisection_links())
    per_rank = np.maximum(per_rank, bis)
    if machine.comm_factors is not None:
        # a degraded NIC slows down every message that rank posts or receives
        per_rank = per_rank * machine.comm_factors
    machine.advance(
        per_rank,
        phase,
        messages=n_messages,
        nbytes=int(send_bytes.sum()),
        op="alltoallv",
    )


def deliver_inprocess(sends: SendTable, nprocs: int):
    """Move the data of one exchange inside this process: an
    :class:`Exchange` comes back as the ``(columns, recv_offsets)`` of
    :meth:`Exchange.deliver`, a ``list[dict]`` as ``recv`` with ``recv[j]`` a
    source-ordered list of ``(src, payload)`` referencing the sender's
    payload objects.  Validation happened before any auditing or charging;
    the destination check here is defensive only (it guards direct callers
    of the backend protocol)."""
    if isinstance(sends, Exchange):
        return sends.deliver(nprocs)
    _validate_sends(nprocs, sends)
    recv: List[List[Tuple[int, Payload]]] = [[] for _ in range(nprocs)]
    # ascending sources make every recv list source-sorted as it is built
    for src, targets in enumerate(sends):
        for dst, payload in targets.items():
            recv[dst].append((src, payload))
    return recv


def _deliver(machine: Machine, sends: SendTable):
    """Move the data of one exchange, once — whatever algorithm charged it.

    With an attached execution backend the bytes travel through it (e.g.
    shared memory + worker processes); without one, delivery runs inline
    (:func:`deliver_inprocess`).  Charging happened before this point either
    way — delivery is pure data plane.

    Aliasing contract (see the module docstring): the buffers of an
    :class:`Exchange` are fresh everywhere; for a ``list[dict]``, in-process
    delivery hands the receiver a *reference* to the sender's payload
    object, a process backend decodes fresh copies for inter-rank messages
    and returns the original object for self-sends.  Receivers must treat
    payloads as read-only.
    """
    backend = machine.backend
    if backend is not None:
        return backend.deliver(sends, machine.nprocs)
    return deliver_inprocess(sends, machine.nprocs)


def alltoallv(
    machine: Machine,
    sends: SendTable,
    phase: Optional[str] = None,
    *,
    count_exchange: str = "dense",
):
    """Sparse all-to-all exchange (the fine-grained redistribution transport).

    Parameters
    ----------
    sends:
        ``sends[i][j]`` is the payload rank ``i`` sends to rank ``j``, or
        the whole exchange as one :class:`Exchange`.  Self-sends are
        delivered for free (local move, charged as a copy).
    count_exchange:
        ``"dense"`` (default) charges the ``MPI_Alltoall`` count exchange
        that a general redistribution needs; ``"sparse"`` skips it (known
        neighborhood communication structure, peer-checked by an attached
        auditor); ``"cached"`` also skips it — the counts are part of a
        precompiled communication schedule (a
        :class:`~repro.core.plan.ResortPlan`), which may target arbitrary
        ranks, so no neighborhood contract applies.

    Returns
    -------
    ``recv`` with ``recv[j]`` a list of ``(source_rank, payload)`` sorted by
    source rank, matching MPI's per-source receive-block semantics; for an
    :class:`Exchange`, the ``(columns, recv_offsets)`` described there —
    the same rows in the same order, in one buffer per column.
    """
    if not isinstance(sends, Exchange) and len(sends) != machine.nprocs:
        raise ValueError(f"sends has {len(sends)} entries, machine has {machine.nprocs} ranks")
    # like a bad destination, a bad mode is rejected before anything is
    # audited, synchronized or charged — on the direct and every staged path
    if count_exchange not in ("dense", "sparse", "cached"):
        raise ValueError(
            f"count_exchange must be 'dense', 'sparse' or 'cached', got {count_exchange!r}"
        )
    if isinstance(sends, Exchange):
        sends.validate(machine.nprocs)
    else:
        _validate_sends(machine.nprocs, sends)
    # one flow for both table forms and every algorithm: the messages as
    # (src, dst, nbytes) arrays are all the charge reads, closed form or staged
    triples = message_triples(sends)
    staged = _staged_engine(machine, "alltoallv", triples=triples)
    if machine.auditor is not None:
        # a staged exchange reaches the ledger round by round instead
        machine.auditor.observe_alltoallv(sends, phase, count_exchange, record=staged is None)
    if staged is None:
        _charge_alltoall(machine, triples, phase, count_exchange)
    else:
        staged(machine, triples, phase, count_exchange=count_exchange)
    return _deliver(machine, sends)


def neighborhood_alltoallv(
    machine: Machine,
    sends: SendTable,
    phase: Optional[str] = None,
):
    """Neighborhood exchange: all-to-all restricted to known peers.

    Identical data plane to :func:`alltoallv` but modeled as pre-posted
    non-blocking point-to-point communication without the dense count
    exchange (Sect. III-B of the paper).  Callers are responsible for only
    sending to actual neighbors; the cost advantage over :func:`alltoallv`
    is the per-peer (instead of per-rank) message overhead.
    """
    return alltoallv(machine, sends, phase, count_exchange="sparse")


def allgatherv(
    machine: Machine,
    contributions: Sequence[np.ndarray],
    phase: Optional[str] = None,
) -> List[np.ndarray]:
    """Every rank receives the concatenation of all contributions.

    Modeled as a ring/bruck allgather: each rank ultimately receives the
    full concatenated volume; latency is logarithmic.  Under the delivery
    aliasing contract (module docstring) every rank is handed the *same*
    gathered array, flagged read-only, whichever algorithm charged the call.
    """
    P = machine.nprocs
    if len(contributions) != P:
        raise ValueError(f"{len(contributions)} contributions for {P} ranks")
    arrays = [np.ascontiguousarray(a) for a in contributions]
    total_bytes = float(sum(a.nbytes for a in arrays))
    staged = _staged_engine(machine, "allgatherv", nbytes=total_bytes)
    if staged is not None:
        staged(machine, arrays, phase)
    else:
        machine.synchronize()
        t = machine.model.tree_collective_time(P, 0.0, machine.topology.diameter())
        t += (P - 1) / max(P, 1) * total_bytes / machine.model.bandwidth if P > 1 else 0.0
        t *= machine.comm_factor()
        t += float(machine.model.copy_time(total_bytes))
        machine.collective(
            t, phase, messages=max(0, P - 1), nbytes=int(total_bytes) * max(0, P - 1),
            op="allgatherv",
        )
    gathered = np.concatenate(arrays) if arrays else np.empty(0)
    gathered.flags.writeable = False
    return [gathered] * P


def allgather_scalars(
    machine: Machine,
    values: Sequence[float] | np.ndarray,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Allgather of one scalar per rank; returns the shared vector."""
    P = machine.nprocs
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (P,):
        raise ValueError(f"expected shape ({P},), got {vals.shape}")
    machine.synchronize()
    t = machine.model.tree_collective_time(P, 8.0 * P, machine.topology.diameter())
    t *= machine.comm_factor()
    machine.collective(
        t, phase, messages=2 * max(0, P - 1), nbytes=8 * P * max(0, P - 1),
        op="allgather",
    )
    return vals.copy()


def allreduce(
    machine: Machine,
    values: Sequence | np.ndarray,
    op: str = "sum",
    phase: Optional[str] = None,
) -> np.ndarray | float:
    """Reduce per-rank values with ``op`` in {'sum','max','min'}; all ranks get the result.

    ``values`` is a length-``nprocs`` sequence of scalars or equal-shape
    arrays (one per rank).

    Integer inputs (every rank contributing a signed/unsigned integer
    dtype) reduce **exactly** in their promoted integer dtype and the
    result preserves it — no round trip through ``float64``, which silently
    rounds values above ``2**53``.  Scalar integer reductions return a
    NumPy integer scalar; everything else keeps the historical float path
    bitwise-identical.
    """
    P = machine.nprocs
    if len(values) != P:
        raise ValueError(f"{len(values)} values for {P} ranks")
    as_given = [np.asarray(v) for v in values]
    int_exact = all(a.dtype.kind in "iu" for a in as_given)
    if int_exact:
        work_dtype = np.result_type(*as_given)
        stacked = np.asarray([a.astype(work_dtype, copy=False) for a in as_given])
    else:
        stacked = np.asarray([np.asarray(v, dtype=np.float64) for v in values])
    if op == "sum":
        result = stacked.sum(axis=0)
    elif op == "max":
        result = stacked.max(axis=0)
    elif op == "min":
        result = stacked.min(axis=0)
    else:
        raise ValueError(f"unsupported op {op!r}")
    if int_exact:
        item_bytes = float(stacked[0].nbytes)
    else:
        item_bytes = float(np.asarray(values[0], dtype=np.float64).nbytes)
    staged = _staged_engine(machine, "allreduce", nbytes=item_bytes)
    if staged is not None:
        # the staged engine only models the traffic; the result stays the
        # canonical rank-ordered reduction above, because a tree reduction
        # would reassociate float sums
        staged(machine, stacked[0], result, phase)
    else:
        machine.synchronize()
        t = machine.model.tree_collective_time(P, item_bytes, machine.topology.diameter())
        t *= machine.comm_factor()
        machine.collective(
            t, phase, messages=2 * max(0, P - 1),
            nbytes=int(item_bytes) * 2 * max(0, P - 1), op="allreduce",
        )
    if result.ndim == 0:
        return result[()] if int_exact else float(result)
    return result


def bcast(
    machine: Machine,
    value: np.ndarray | float,
    root: int = 0,
    phase: Optional[str] = None,
) -> List:
    """Broadcast ``value`` from ``root``; returns per-rank copies."""
    machine.check_rank(root)
    P = machine.nprocs
    arr = np.asarray(value)
    staged = _staged_engine(machine, "bcast", nbytes=float(arr.nbytes))
    if staged is not None:
        staged(machine, arr, root, phase)
    else:
        machine.synchronize()
        t = machine.model.tree_collective_time(
            P, float(arr.nbytes), machine.topology.diameter()
        )
        t *= machine.comm_factor()
        machine.collective(
            t, phase, messages=max(0, P - 1), nbytes=arr.nbytes * max(0, P - 1),
            op="bcast",
        )
    return [np.array(arr, copy=True) if arr.ndim else value for _ in range(P)]


def gatherv(
    machine: Machine,
    contributions: Sequence[np.ndarray],
    root: int = 0,
    phase: Optional[str] = None,
) -> List[np.ndarray]:
    """Gather variable-size arrays at ``root`` (others receive empty arrays)."""
    machine.check_rank(root)
    P = machine.nprocs
    if len(contributions) != P:
        raise ValueError(f"{len(contributions)} contributions for {P} ranks")
    arrays = [np.ascontiguousarray(a) for a in contributions]
    total_bytes = float(sum(a.nbytes for i, a in enumerate(arrays) if i != root))
    staged = _staged_engine(machine, "gatherv", nbytes=total_bytes)
    if staged is not None:
        staged(machine, arrays, root, phase)
    else:
        machine.synchronize()
        # root serializes P-1 receives; senders each pay one message
        model = machine.model
        per_rank = np.zeros(P)
        hops = machine.topology.hops(np.full(P, root), np.arange(P))
        for i, a in enumerate(arrays):
            if i == root:
                continue
            per_rank[i] += float(model.msg_time(hops[i], a.nbytes)) * machine.comm_factor(root, i)
        per_rank[root] += (
            model.overhead * (P - 1) + total_bytes / model.bandwidth
        ) * machine.comm_factor(root)
        per_rank[root] += float(model.copy_time(total_bytes))
        machine.collective(
            per_rank, phase, messages=max(0, P - 1), nbytes=int(total_bytes),
            op="gatherv",
        )
    result = [np.empty((0,) + arrays[0].shape[1:], dtype=arrays[0].dtype) for _ in range(P)]
    result[root] = np.concatenate(arrays) if arrays else np.empty(0)
    return result


def scatterv(
    machine: Machine,
    parts: Sequence[np.ndarray],
    root: int = 0,
    phase: Optional[str] = None,
) -> List[np.ndarray]:
    """Scatter ``parts[i]`` (held at ``root``) to each rank ``i``.

    The root serializes all sends — this is the communication bottleneck the
    paper demonstrates with the "single process" initial distribution
    (Fig. 6).
    """
    machine.check_rank(root)
    P = machine.nprocs
    if len(parts) != P:
        raise ValueError(f"{len(parts)} parts for {P} ranks")
    arrays = [np.ascontiguousarray(a) for a in parts]
    total_bytes = float(sum(a.nbytes for i, a in enumerate(arrays) if i != root))
    staged = _staged_engine(machine, "scatterv", nbytes=total_bytes)
    if staged is not None:
        staged(machine, arrays, root, phase)
    else:
        machine.synchronize()
        model = machine.model
        per_rank = np.zeros(P)
        hops = machine.topology.hops(np.full(P, root), np.arange(P))
        per_rank[root] += (
            model.overhead * (P - 1) + total_bytes / model.bandwidth
        ) * machine.comm_factor(root)
        per_rank[root] += float(model.copy_time(total_bytes))
        for i, a in enumerate(arrays):
            if i == root:
                continue
            per_rank[i] += float(model.msg_time(hops[i], a.nbytes)) * machine.comm_factor(root, i)
            # receivers cannot finish before the root has pushed everything out
            per_rank[i] = max(per_rank[i], per_rank[root])
        machine.collective(
            per_rank, phase, messages=max(0, P - 1), nbytes=int(total_bytes),
            op="scatterv",
        )
    return [a.copy() for a in arrays]
