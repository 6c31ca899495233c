"""Test instruments: readers and reference evaluations that tests use to
check production code, and that no entry point of the package calls.

* :func:`read_ndjson` parses an obs NDJSON snapshot back into
  ``(meta, spans, metrics)``, bit for bit (the export round-trip tests);
* :func:`total_momentum`, :func:`max_drift` and :func:`mean_drift` measure
  a trajectory (momentum conservation, the drift behind Fig. 8);
* :func:`fmm_evaluate` runs one :class:`~repro.solvers.fmm.tree.FMMTree`
  sequentially, far + near field in input order (the FMM accuracy tests);
* :func:`check_count_symmetry` compares the count table an ``alltoallv``
  was given with the one it delivered, and :func:`verify_exchange_schedule`
  checks a pairwise schedule (Batcher's merge-exchange rounds).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs.spans import Span
from repro.solvers.fmm.tree import FarFieldStats, FMMTree
from repro.verify import CommAuditError


def read_ndjson(
    lines: Iterable[str],
) -> Tuple[Dict[str, Any], List[Span], List[Dict[str, Any]]]:
    """Parse NDJSON lines (or an open file) back into ``(meta, spans,
    metrics)``.

    Span floats are restored from the ``*_hex`` fields, so a parsed span
    stream is bit-for-bit equal to the recorded one (the round-trip
    property the chaos-tagged export test asserts).
    """
    meta: Dict[str, Any] = {}
    spans: List[Span] = []
    metrics: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        kind = obj.get("kind")
        if kind == "meta":
            meta = obj
        elif kind == "metric":
            metrics.append(obj)
        else:
            attrs = obj.get("attrs", {})
            spans.append(
                Span(
                    id=int(obj["id"]),
                    parent=int(obj["parent"]),
                    rank=int(obj["rank"]),
                    phase=obj["phase"],
                    op=obj["op"],
                    kind=kind,
                    t_start=float.fromhex(obj["t_start_hex"]),
                    t_end=float.fromhex(obj["t_end_hex"]),
                    time=float.fromhex(obj["time_hex"]),
                    messages=int(obj.get("messages", 0)),
                    nbytes=int(obj.get("nbytes", 0)),
                    attrs=tuple(sorted(attrs.items())),
                )
            )
    return meta, spans, metrics


def total_momentum(vel: Sequence[np.ndarray], mass: float = 1.0) -> np.ndarray:
    """Vector total momentum over all ranks."""
    out = np.zeros(3)
    for v in vel:
        if v.shape[0]:
            out += mass * v.sum(axis=0)
    return out


def _displacements(
    initial: np.ndarray, current: np.ndarray, box: Optional[np.ndarray]
) -> np.ndarray:
    d = current - initial
    if box is not None:
        d -= np.round(d / box) * box
    return np.sqrt((d * d).sum(axis=1))


def max_drift(
    initial: np.ndarray, current: np.ndarray, box: Optional[np.ndarray] = None
) -> float:
    """Maximum displacement of any particle from its initial position
    (minimum-image if ``box`` given; both arrays in the same order)."""
    if initial.shape[0] == 0:
        return 0.0
    return float(_displacements(initial, current, box).max())


def mean_drift(
    initial: np.ndarray, current: np.ndarray, box: Optional[np.ndarray] = None
) -> float:
    """Mean displacement of the particles from their initial positions."""
    if initial.shape[0] == 0:
        return 0.0
    return float(_displacements(initial, current, box).mean())


def fmm_evaluate(
    tree: FMMTree, pos: np.ndarray, q: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, FarFieldStats]:
    """Sequential full FMM evaluation (far + near) of ``tree`` in input order."""
    pos = np.asarray(pos, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    keys = tree.morton_keys(pos)
    order = np.argsort(keys, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(order.shape[0])
    spos = pos[order]
    sq = q[order]
    skeys = keys[order]
    pot_far, field_far, stats = tree.far_field(spos, sq, tree.linear_of_morton(skeys))
    pot_near, field_near, pairs = tree.near_field_morton(spos, skeys, spos, sq, skeys)
    stats.near_pairs = pairs
    pot = (pot_far + pot_near)[inv]
    field = (field_far + field_near)[inv]
    return pot, field, stats


def check_count_symmetry(
    send_counts: Sequence[Sequence[int]],
    recv_counts: Sequence[Sequence[int]],
) -> None:
    """Validate an alltoallv count table pair.

    ``send_counts[i][j]`` is what rank ``i`` claims to send to rank ``j``;
    ``recv_counts[j][i]`` is what rank ``j`` expects from rank ``i``.  A
    correct exchange requires the receive table to be the exact transpose of
    the send table; any asymmetric entry means a rank posts a receive for
    data that never comes (hang) or data arrives unannounced (truncation).
    """
    send = np.asarray(send_counts, dtype=np.int64)
    recv = np.asarray(recv_counts, dtype=np.int64)
    if send.ndim != 2 or send.shape[0] != send.shape[1]:
        raise CommAuditError(f"send count table must be square, got {send.shape}")
    if recv.shape != send.shape:
        raise CommAuditError(
            f"count table shapes differ: send {send.shape} vs recv {recv.shape}"
        )
    if np.any(send < 0) or np.any(recv < 0):
        raise CommAuditError("count tables must be non-negative")
    mismatch = send != recv.T
    if np.any(mismatch):
        src, dst = (int(x) for x in np.argwhere(mismatch)[0])
        raise CommAuditError(
            f"asymmetric alltoallv counts: rank {src} sends {int(send[src, dst])} "
            f"to rank {dst}, which expects {int(recv[dst, src])}"
        )


def verify_exchange_schedule(
    rounds: Iterable[Sequence[Tuple[int, int]]],
    nprocs: int,
) -> None:
    """Validate a pairwise exchange schedule (e.g. Batcher comparator rounds).

    Each round must pair distinct, valid ranks, and no rank may appear in
    two pairs of the same round: a rank scheduled into two simultaneous
    ``MPI_Sendrecv`` exchanges posts a send whose matching receive is owned
    by a rank still blocked in its own exchange — the virtual deadlock the
    merge-exchange path must never produce.
    """
    for round_index, pairs in enumerate(rounds):
        seen: Set[int] = set()
        for a, b in pairs:
            if not (0 <= a < nprocs and 0 <= b < nprocs):
                raise CommAuditError(
                    f"round {round_index}: pair ({a}, {b}) outside [0, {nprocs})"
                )
            if a == b:
                raise CommAuditError(
                    f"round {round_index}: rank {a} paired with itself"
                )
            for r in (a, b):
                if r in seen:
                    raise CommAuditError(
                        f"round {round_index}: rank {r} appears in two exchanges "
                        "(unmatched sendrecv — virtual deadlock)"
                    )
                seen.add(r)
