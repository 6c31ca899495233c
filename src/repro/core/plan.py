"""Plan-based resort engine: compiled, cached, fused redistribution schedules.

Method B's hot path repeats the same redistribution many times: every
``fcs_resort_*`` call of a time step routes application data with the *same*
resort indices, and consecutive time steps often leave the distribution
unchanged entirely.  Recomputing the routing schedule (unpacking indices,
grouping by target, validating the target permutation) on every call is pure
overhead — the plan-based communication technique of Sudarsan & Ribbens'
resizable-computation redistribution and of persistent/planned MPI
collectives applies directly.

:class:`ResortPlan` compiles a run's resort indices **once** into an
executable schedule:

* per source rank, the stable gather order that groups rows by target rank
  and the per-target send segments (the alltoallv send counts),
* per destination rank, the receive permutation that scatters arriving rows
  into their target positions — built from **one** schedule-distribution
  exchange of the packed target positions at compile time, after which data
  exchanges no longer carry any index column at all,
* the communication strategy (general or neighborhood all-to-all).  Because
  the counts are part of the plan, executions skip the dense
  ``MPI_Alltoall`` count exchange (``count_exchange="cached"``).

Executing a plan moves arbitrarily many data columns of mixed dtype in **one**
fused exchange: each rank packs its columns row-wise into a contiguous byte
record, ships one payload per target, and the receiver splits the records
back into typed columns.  Sending ``k`` columns therefore costs one message
round instead of ``k`` — exactly the per-array savings the ``FCS.resort``
redesign exposes to applications.

Plans carry their own statistics (:class:`ResortPlanStats`) and report them
into the machine trace counters (``resort_plan.*``) and, when a
:class:`~repro.verify.audit.CommAuditor` is attached, into the auditor's
independent plan ledger so the savings are observable *and* cross-checked.

Plan executions call :func:`~repro.simmpi.collectives.alltoallv` and hence
compose with the staged collective-algorithm engines
(:mod:`repro.simmpi.algos`): under e.g. ``alltoallv=bruck`` the fused byte
records route through the staged rounds, still with ``count_exchange=
"cached"`` (the plan's cached counts spare even the staged engines their
dense count exchange), and the delivered records stay bitwise identical.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fine_grained import COMM_KINDS
from repro.core.resort import inverse_permutation, unpack_resort_index
from repro.obs.spans import machine_span
from repro.perf import instrument
from repro.simmpi.collectives import alltoallv, neighborhood_alltoallv
from repro.simmpi.machine import Machine

__all__ = ["COMM_KINDS", "ResortPlan", "ResortPlanStats", "PlanColumnSpec"]

#: phase label under which schedule compilation is traced (kept separate from
#: the ``resort`` data exchanges so the amortization is visible per phase)
COMPILE_PHASE = "resort_plan"


@dataclasses.dataclass
class ResortPlanStats:
    """Counters describing how much work plans did (and saved).

    Attributes
    ----------
    compiles:
        schedules compiled (each costs one index-distribution exchange).
    cache_hits:
        compilations *skipped* because a valid plan was reused.
    executions:
        fused data exchanges executed.
    fused_columns:
        total data columns moved, summed over executions; with ``executions
        < fused_columns`` the fusion saved ``fused_columns - executions``
        exchange rounds versus the one-exchange-per-array legacy path.
    bytes_moved:
        inter-rank payload bytes of the fused data exchanges (self-sends are
        local copies and excluded, matching the trace's accounting).
    """

    compiles: int = 0
    cache_hits: int = 0
    executions: int = 0
    fused_columns: int = 0
    bytes_moved: int = 0

    def merged(self, other: "ResortPlanStats") -> "ResortPlanStats":
        return ResortPlanStats(
            compiles=self.compiles + other.compiles,
            cache_hits=self.cache_hits + other.cache_hits,
            executions=self.executions + other.executions,
            fused_columns=self.fused_columns + other.fused_columns,
            bytes_moved=self.bytes_moved + other.bytes_moved,
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of plan requests served from cache."""
        total = self.compiles + self.cache_hits
        return self.cache_hits / total if total else 0.0


@dataclasses.dataclass(frozen=True)
class PlanColumnSpec:
    """Shape contract of one fused column: dtype, trailing dims, row bytes."""

    dtype: np.dtype
    trailing: Tuple[int, ...]
    row_bytes: int


def _column_spec(arrays: Sequence[np.ndarray], index: int) -> PlanColumnSpec:
    """Validate that one column's per-rank arrays agree on dtype/shape."""
    first = arrays[0]
    dtype = np.dtype(first.dtype)
    trailing = tuple(int(d) for d in first.shape[1:])
    for r, arr in enumerate(arrays):
        if np.dtype(arr.dtype) != dtype:
            raise ValueError(
                f"column {index}: rank {r} has dtype {arr.dtype}, rank 0 has {dtype}"
            )
        if tuple(int(d) for d in arr.shape[1:]) != trailing:
            raise ValueError(
                f"column {index}: rank {r} has trailing shape {arr.shape[1:]}, "
                f"rank 0 has {trailing}"
            )
    row_bytes = dtype.itemsize * int(np.prod(trailing, dtype=np.int64)) if trailing else dtype.itemsize
    if row_bytes <= 0:
        raise ValueError(f"column {index}: zero-size rows cannot be redistributed")
    return PlanColumnSpec(dtype=dtype, trailing=trailing, row_bytes=row_bytes)


def _byte_rows(arr: np.ndarray, spec: PlanColumnSpec) -> np.ndarray:
    """View one column's rows as a contiguous ``(n, row_bytes)`` uint8 matrix."""
    arr = np.ascontiguousarray(arr, dtype=spec.dtype)
    n = arr.shape[0]
    return arr.view(np.uint8).reshape(n, spec.row_bytes)


class ResortPlan:
    """A compiled, reusable redistribution schedule for one set of resort
    indices.

    Compiling unpacks every packed (target rank, target position) value,
    groups rows by target, distributes the target positions to their owners
    in one exchange, and validates once that the targets form a permutation
    onto the new layout.  Every subsequent :meth:`execute` is then pure data
    movement: gather rows into per-target segments, one fused exchange,
    scatter rows into place — no index columns on the wire, no count
    exchange, no revalidation.

    Parameters
    ----------
    machine:
        the machine the schedule is compiled for.
    resort_indices:
        per-original-rank packed target locations (what a method-B
        :class:`~repro.solvers.base.RunReport` provides).
    old_counts / new_counts:
        per-rank row counts before/after the redistribution.
    comm:
        ``"alltoall"`` or ``"neighborhood"`` — the structured communication
        strategy (``RunReport.comm``).
    phase:
        trace phase label charged by :meth:`execute` (default ``"resort"``).
    """

    def __init__(
        self,
        machine: Machine,
        resort_indices: Sequence[np.ndarray],
        old_counts: Sequence[int],
        new_counts: Sequence[int],
        *,
        comm: str = "alltoall",
        phase: str = "resort",
    ) -> None:
        P = machine.nprocs
        if not (len(resort_indices) == len(old_counts) == len(new_counts) == P):
            raise ValueError("per-rank sequences must have one entry per rank")
        if comm not in COMM_KINDS:
            raise ValueError(f"comm must be one of {COMM_KINDS}, got {comm!r}")
        self.machine = machine
        self.comm = comm
        self.phase = phase
        self.old_counts = [int(c) for c in old_counts]
        self.new_counts = [int(c) for c in new_counts]
        self._indices: List[np.ndarray] = []
        #: stable per-source gather order grouping rows by target rank
        self._gather_order: List[np.ndarray] = []
        #: per-source list of (target, start, end) send segments over the
        #: gathered rows — the plan's cached alltoallv count table
        self._segments: List[List[Tuple[int, int, int]]] = []
        self.stats = ResortPlanStats()

        # validation + index unpacking, per rank in rank order (error
        # messages and their ordering match the original implementation)
        ranks_list: List[np.ndarray] = []
        pos_list: List[np.ndarray] = []
        for r in range(P):
            idx = np.asarray(resort_indices[r], dtype=np.int64)
            if idx.shape != (self.old_counts[r],):
                raise ValueError(
                    f"rank {r}: {idx.shape[0]} resort indices for "
                    f"{self.old_counts[r]} original particles"
                )
            if np.any(idx < 0):
                raise ValueError(
                    f"rank {r}: invalid (ghost) resort index cannot be planned"
                )
            ranks, positions = unpack_resort_index(idx)
            if idx.size and int(ranks.max()) >= P:
                raise ValueError(
                    f"rank {r}: target rank {int(ranks.max())} out of range [0, {P})"
                )
            self._indices.append(idx)
            ranks_list.append(ranks)
            pos_list.append(positions)

        with machine_span(machine, "resort_plan.compile", op="plan.compile", comm=comm):
            if instrument.prefer_reference():
                pos_sends = self._compile_schedules_reference(ranks_list, pos_list)
            else:
                pos_sends = self._compile_schedules(ranks_list, pos_list)

            # schedule distribution: the one-off exchange that tells every
            # destination which incoming row lands where.  This is the only
            # time index data travels; executions ship pure payload.
            if comm == "neighborhood":
                recv = neighborhood_alltoallv(machine, pos_sends, COMPILE_PHASE)
            else:
                recv = alltoallv(machine, pos_sends, COMPILE_PHASE)

            #: per-destination scatter permutation: ``out[p] = incoming[perm[p]]``
            self._scatter_perm: List[np.ndarray] = []
            for dst in range(P):
                parts = [payload for _src, payload in recv[dst]]
                incoming = (
                    np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
                )
                n = self.new_counts[dst]
                if incoming.shape[0] != n:
                    raise ValueError(
                        f"rank {dst}: {incoming.shape[0]} resort targets for "
                        f"{n} new-layout slots"
                    )
                self._scatter_perm.append(inverse_permutation(incoming, n, dst))
            # building the inverse permutations is a local 8-byte scatter per row
            machine.copy(
                8.0 * np.asarray(self.new_counts, dtype=np.float64), COMPILE_PHASE
            )

        self._total_old = int(sum(self.old_counts))
        self._total_new = int(sum(self.new_counts))

        self.stats.compiles += 1
        machine.count("resort_plan.compiles")

    # -- schedule compilation -----------------------------------------------------

    def _compile_schedules(
        self, ranks_list: List[np.ndarray], pos_list: List[np.ndarray]
    ) -> List[dict]:
        """Build gather orders and send segments for all ranks at once.

        One stable argsort of the composite key ``src_rank * P + target_rank``
        reproduces every rank's stable by-target argsort (ranks occupy
        disjoint, src-major key ranges, and stability preserves the original
        row order inside each range), so the per-rank schedules fall out of a
        single global sort plus run-boundary detection.  Produces structures
        bitwise identical to :meth:`_compile_schedules_reference`.
        """
        P = self.machine.nprocs
        t0 = time.perf_counter_ns() if instrument.collecting() else 0
        all_ranks = (
            np.concatenate(ranks_list) if ranks_list else np.empty(0, dtype=np.int64)
        )
        all_pos = (
            np.concatenate(pos_list) if pos_list else np.empty(0, dtype=np.int64)
        )
        counts = np.asarray(self.old_counts, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        src = np.repeat(np.arange(P, dtype=np.int64), counts)
        gorder = np.argsort(src * np.int64(P) + all_ranks, kind="stable")
        sorted_src = src[gorder]
        sorted_ranks = all_ranks[gorder]
        sorted_pos = all_pos[gorder]
        # run boundaries of the (src, dst) segments over the sorted rows
        if gorder.size:
            change = np.flatnonzero(
                (np.diff(sorted_ranks) != 0) | (np.diff(sorted_src) != 0)
            )
            starts = np.concatenate(([0], change + 1))
            ends = np.concatenate((change + 1, [gorder.size]))
        else:
            starts = np.empty(0, dtype=np.int64)
            ends = np.empty(0, dtype=np.int64)
        seg_src = sorted_src[starts] if starts.size else starts
        seg_dst = sorted_ranks[starts] if starts.size else starts
        # per-rank slices of the segment table (seg_src is ascending)
        seg_of_rank = np.searchsorted(seg_src, np.arange(P + 1))
        self._moved_rows = int(((ends - starts)[seg_dst != seg_src]).sum())
        self._inter_messages = int((seg_dst != seg_src).sum())

        pos_sends: List[dict] = []
        dst_l = seg_dst.tolist()
        s_l = starts.tolist()
        e_l = ends.tolist()
        for r in range(P):
            base = int(offsets[r])
            self._gather_order.append(gorder[offsets[r]:offsets[r + 1]] - base)
            segments: List[Tuple[int, int, int]] = []
            sends: dict = {}
            for k in range(int(seg_of_rank[r]), int(seg_of_rank[r + 1])):
                dst, s, e = dst_l[k], s_l[k], e_l[k]
                segments.append((dst, s - base, e - base))
                sends[dst] = sorted_pos[s:e]
            self._segments.append(segments)
            pos_sends.append(sends)
        if t0:
            instrument.record(
                "resort_plan.compile",
                time.perf_counter_ns() - t0,
                ops=max(int(gorder.size), 1),
            )
        return pos_sends

    def _compile_schedules_reference(
        self, ranks_list: List[np.ndarray], pos_list: List[np.ndarray]
    ) -> List[dict]:
        """Scalar oracle of :meth:`_compile_schedules`: one argsort and
        segment scan per source rank (the original implementation)."""
        P = self.machine.nprocs
        pos_sends: List[dict] = []
        moved = 0
        messages = 0
        for r in range(P):
            ranks = ranks_list[r]
            positions = pos_list[r]
            order = np.argsort(ranks, kind="stable")
            sorted_ranks = ranks[order]
            sorted_pos = positions[order]
            segments: List[Tuple[int, int, int]] = []
            sends: dict = {}
            if order.size:
                bounds = np.flatnonzero(np.diff(sorted_ranks)) + 1
                starts = np.concatenate(([0], bounds))
                ends = np.concatenate((bounds, [sorted_ranks.size]))
                for s, e in zip(starts, ends):
                    dst = int(sorted_ranks[s])
                    segments.append((dst, int(s), int(e)))
                    sends[dst] = sorted_pos[s:e]
                    if dst != r:
                        moved += int(e - s)
                        messages += 1
            self._gather_order.append(order)
            self._segments.append(segments)
            pos_sends.append(sends)
        self._moved_rows = moved
        self._inter_messages = messages
        return pos_sends

    # -- validity -----------------------------------------------------------------

    def matches(
        self,
        resort_indices: Sequence[np.ndarray],
        old_counts: Optional[Sequence[int]] = None,
        new_counts: Optional[Sequence[int]] = None,
        comm: Optional[str] = None,
    ) -> bool:
        """Explicit validity check: is this plan still correct for the given
        distribution?

        Fast path: identical array objects (the common repeated-call case)
        are accepted without touching the data; otherwise the indices are
        compared element-wise — an unchanged distribution across time steps
        therefore skips recompilation entirely.

        A load-balance rebalance (``repro.core.balance``, see
        docs/load_balancing.md) moves the weighted split points, which
        changes the resort indices and per-rank counts — this check then
        correctly reports the cached plan stale and the handle recompiles.
        No special invalidation hook is needed: rebalances are infrequent
        by construction (the monitor's hysteresis), so the recompile cost
        amortizes exactly like any other layout change.
        """
        if comm is not None and comm != self.comm:
            return False
        if old_counts is not None and [int(c) for c in old_counts] != self.old_counts:
            return False
        if new_counts is not None and [int(c) for c in new_counts] != self.new_counts:
            return False
        if len(resort_indices) != len(self._indices):
            return False
        for mine, theirs in zip(self._indices, resort_indices):
            if mine is theirs:
                continue
            theirs = np.asarray(theirs)
            if mine.shape != theirs.shape or not np.array_equal(mine, theirs):
                return False
        return True

    # -- execution ----------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return int(sum(self.old_counts))

    def execute(
        self,
        columns: Sequence[Sequence[np.ndarray]],
        *,
        phase: Optional[str] = None,
    ) -> List[List[np.ndarray]]:
        """Redistribute data columns in one fused exchange.

        Parameters
        ----------
        columns:
            ``columns[c][r]`` is column ``c``'s array on rank ``r`` in the
            *original* order and distribution; columns may mix dtypes and
            trailing shapes (``(n,)``, ``(n, k)``, ...), but each column must
            be consistent across ranks and row counts must equal the plan's
            original counts.

        Returns
        -------
        The columns in the changed order and distribution, same structure
        and dtypes as the input.
        """
        machine = self.machine
        P = machine.nprocs
        phase = phase if phase is not None else self.phase
        if not columns:
            raise ValueError("at least one data column is required")
        cols = [list(col) for col in columns]
        for c, col in enumerate(cols):
            if len(col) != P:
                raise ValueError(
                    f"column {c}: {len(col)} per-rank arrays for {P} ranks"
                )
        specs = [_column_spec(col, c) for c, col in enumerate(cols)]
        record_bytes = sum(s.row_bytes for s in specs)
        with machine_span(
            machine, "resort_plan.execute", op="plan.execute",
            columns=len(cols), comm=self.comm,
        ):
            if instrument.prefer_reference():
                return self._execute_reference(cols, specs, record_bytes, phase)
            return self._execute_vectorized(cols, specs, record_bytes, phase)

    def _execute_vectorized(
        self,
        cols: List[List[np.ndarray]],
        specs: List[PlanColumnSpec],
        record_bytes: int,
        phase: str,
    ) -> List[List[np.ndarray]]:
        machine = self.machine
        P = machine.nprocs

        # row-count validation in the reference's (rank, column) order
        for r in range(P):
            n = self.old_counts[r]
            for c, col in enumerate(cols):
                if col[r].shape[0] != n:
                    raise ValueError(
                        f"column {c}, rank {r}: data has {col[r].shape[0]} rows, "
                        f"original particle count was {n}"
                    )

        # pack: byte-fuse the columns row-wise, gather by target, slice the
        # cached segments into one payload per destination.  The byte-record
        # layout is kept deliberately: typed per-column payload tuples were
        # measured slower at every preset scale because the simulated
        # collective's bookkeeping cost scales with the *number* of payload
        # arrays (see docs/performance.md).  What the compiled plan buys the
        # execution is the precomputed movement statistics below — no
        # per-segment Python scans remain on this path.
        t0 = time.perf_counter_ns() if instrument.collecting() else 0
        ncols = len(cols)
        sends: List[dict] = []
        for r in range(P):
            views = [_byte_rows(cols[c][r], specs[c]) for c in range(ncols)]
            records = views[0] if ncols == 1 else np.concatenate(views, axis=1)
            gathered = records[self._gather_order[r]]
            sends.append(
                {dst: gathered[s:e] for dst, s, e in self._segments[r]}
            )
        if t0:
            instrument.record(
                "resort_plan.pack",
                time.perf_counter_ns() - t0,
                ops=max(self._total_old * record_bytes, 1),
            )
        pack_bytes = (
            np.asarray(self.old_counts, dtype=np.float64) * record_bytes
        )

        machine.copy(pack_bytes, phase)
        if self.comm == "neighborhood":
            recv = neighborhood_alltoallv(machine, sends, phase)
        else:
            # counts are part of the plan: skip the dense count exchange
            recv = alltoallv(machine, sends, phase, count_exchange="cached")

        # unpack: concatenate source-ordered payloads, scatter into target
        # positions with the cached inverse permutation, split the byte
        # records back into typed columns
        t1 = time.perf_counter_ns() if instrument.collecting() else 0
        out: List[List[np.ndarray]] = [[] for _ in cols]
        for dst in range(P):
            n = self.new_counts[dst]
            parts = [payload for _src, payload in recv[dst]]
            incoming = (
                np.concatenate(parts)
                if parts
                else np.empty((0, record_bytes), dtype=np.uint8)
            )
            if incoming.shape[0] != n:
                raise ValueError(
                    f"rank {dst}: received {incoming.shape[0]} rows, expected {n}"
                )
            ordered = incoming[self._scatter_perm[dst]]
            offset = 0
            for c, spec in enumerate(specs):
                chunk = np.ascontiguousarray(
                    ordered[:, offset : offset + spec.row_bytes]
                )
                out[c].append(
                    chunk.view(spec.dtype).reshape((n,) + spec.trailing)
                )
                offset += spec.row_bytes
        if t1:
            instrument.record(
                "resort_plan.unpack",
                time.perf_counter_ns() - t1,
                ops=max(self._total_new * record_bytes, 1),
            )
        unpack_bytes = (
            np.asarray(self.new_counts, dtype=np.float64) * record_bytes
        )
        machine.copy(unpack_bytes, phase)

        self._count_execution(
            phase, len(cols), self._inter_messages, self._moved_rows * record_bytes
        )
        return out

    def _execute_reference(
        self,
        cols: List[List[np.ndarray]],
        specs: List[PlanColumnSpec],
        record_bytes: int,
        phase: str,
    ) -> List[List[np.ndarray]]:
        """Scalar oracle of :meth:`execute`: per-rank packing, per-destination
        unpacking and per-segment statistics scans (the original
        implementation).  Charges the exact same modeled costs."""
        machine = self.machine
        P = machine.nprocs

        # pack: byte-fuse the columns row-wise, gather by target, slice the
        # cached segments into one payload per destination
        sends: List[dict] = []
        pack_bytes = np.zeros(P, dtype=np.float64)
        for r in range(P):
            n = self.old_counts[r]
            views = []
            for c, col in enumerate(cols):
                arr = col[r]
                if arr.shape[0] != n:
                    raise ValueError(
                        f"column {c}, rank {r}: data has {arr.shape[0]} rows, "
                        f"original particle count was {n}"
                    )
                views.append(_byte_rows(arr, specs[c]))
            records = views[0] if len(views) == 1 else np.concatenate(views, axis=1)
            gathered = records[self._gather_order[r]]
            sends.append(
                {dst: gathered[s:e] for dst, s, e in self._segments[r]}
            )
            pack_bytes[r] = float(n) * record_bytes

        machine.copy(pack_bytes, phase)
        if self.comm == "neighborhood":
            recv = neighborhood_alltoallv(machine, sends, phase)
        else:
            # counts are part of the plan: skip the dense count exchange
            recv = alltoallv(machine, sends, phase, count_exchange="cached")

        # unpack: concatenate source-ordered payloads, scatter into target
        # positions, split the byte records back into typed columns
        out: List[List[np.ndarray]] = [[] for _ in cols]
        unpack_bytes = np.zeros(P, dtype=np.float64)
        for dst in range(P):
            n = self.new_counts[dst]
            parts = [payload for _src, payload in recv[dst]]
            incoming = (
                np.concatenate(parts)
                if parts
                else np.empty((0, record_bytes), dtype=np.uint8)
            )
            if incoming.shape[0] != n:
                raise ValueError(
                    f"rank {dst}: received {incoming.shape[0]} rows, expected {n}"
                )
            ordered = incoming[self._scatter_perm[dst]]
            offset = 0
            for c, spec in enumerate(specs):
                chunk = np.ascontiguousarray(
                    ordered[:, offset : offset + spec.row_bytes]
                )
                out[c].append(
                    chunk.view(spec.dtype).reshape((n,) + spec.trailing)
                )
                offset += spec.row_bytes
            unpack_bytes[dst] = float(n) * record_bytes
        machine.copy(unpack_bytes, phase)

        inter = [
            e - s for r in range(P) for dst, s, e in self._segments[r] if dst != r
        ]
        self._count_execution(
            phase, len(cols), len(inter), int(sum(inter)) * record_bytes
        )
        return out

    def _count_execution(
        self, phase: str, ncols: int, messages: int, moved: int
    ) -> None:
        """Report one fused execution: plan stats, the machine's event
        counters, and the plan's self-computed inter-rank totals for an
        attached auditor's ``plan-accounting`` cross-check."""
        machine = self.machine
        self.stats.executions += 1
        self.stats.fused_columns += ncols
        self.stats.bytes_moved += moved
        machine.count("resort_plan.executions")
        machine.count("resort_plan.fused_columns", ncols)
        machine.count("resort_plan.bytes_moved", moved)
        if machine.auditor is not None:
            machine.auditor.observe_plan_execution(phase, messages, moved)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResortPlan(nprocs={self.machine.nprocs}, rows={self.total_rows}, "
            f"comm={self.comm!r}, executions={self.stats.executions})"
        )
