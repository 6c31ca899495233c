"""Plan-based resort engine: compiled, cached, fused redistribution schedules.

Method B's hot path repeats the same redistribution many times: every
``fcs_resort_*`` call of a time step routes application data with the *same*
resort indices, and consecutive time steps often leave the distribution
unchanged entirely.  Recomputing the routing schedule (unpacking indices,
grouping by target, validating the target permutation) on every call is pure
overhead — the plan-based communication technique of Sudarsan & Ribbens'
resizable-computation redistribution and of persistent/planned MPI
collectives applies directly.

:class:`ResortPlan` compiles a run's resort indices **once** into a stored
communication schedule:

* the *route* of the fine-grained redistribution
  (:func:`~repro.core.fine_grained.exchange_route`): every row grouped by
  ``(source, target)`` rank into the messages of one exchange — the same
  descriptor every other redistribution of the repo builds and throws away,
* one *placement* permutation scattering the arriving rows into their target
  positions — built from **one** schedule-distribution exchange of the
  target positions at compile time, after which data exchanges no longer
  carry any index column at all,
* the communication strategy (general or neighborhood all-to-all).  Because
  the counts are part of the plan, executions skip the dense
  ``MPI_Alltoall`` count exchange (``count_exchange="cached"``).

Executing a plan moves arbitrarily many data columns of mixed dtype in **one**
fused exchange: the columns of all ranks are packed once, row-wise, into one
contiguous byte record per row, the stored route is bound to that one record
column and shipped as one :class:`~repro.simmpi.collectives.Exchange`, and
the placed records are split back into typed columns.  Sending ``k`` columns
therefore costs one message round instead of ``k`` — exactly the per-array
savings the ``FCS.resort`` redesign exposes to applications — and one array
per message whatever ``k`` is (what a staged engine or a backend pays for).

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
import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fine_grained import COMM_KINDS, exchange_route
from repro.core.resort import RESORT_POS_BITS, check_target_slots, unpack_resort_index
from repro.obs.spans import machine_span
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
    """Shape contract of one fused column: dtype and trailing dims."""

    dtype: np.dtype
    trailing: Tuple[int, ...]

    @property
    def row_bytes(self) -> int:
        return self.dtype.itemsize * int(np.prod(self.trailing, dtype=np.int64))


def _column_spec(arrays: Sequence[np.ndarray], index: int) -> PlanColumnSpec:
    """Validate that one column's per-rank arrays agree on dtype/shape."""
    first = arrays[0]
    spec = PlanColumnSpec(np.dtype(first.dtype), tuple(int(d) for d in first.shape[1:]))
    for r, arr in enumerate(arrays):
        if np.dtype(arr.dtype) != spec.dtype:
            raise ValueError(
                f"column {index}: rank {r} has dtype {arr.dtype}, rank 0 has {spec.dtype}"
            )
        if tuple(int(d) for d in arr.shape[1:]) != spec.trailing:
            raise ValueError(
                f"column {index}: rank {r} has trailing shape {arr.shape[1:]}, "
                f"rank 0 has {spec.trailing}"
            )
    if spec.row_bytes <= 0:
        raise ValueError(f"column {index}: zero-size rows cannot be redistributed")
    return spec


class ResortPlan:
    """A compiled, reusable redistribution schedule for one set of resort
    indices.

    Compiling unpacks every packed (target rank, target position) value,
    validates once that the targets form a permutation onto the new layout,
    groups the rows by target into the route of one exchange and
    distributes the target positions to their owners along it.  Every
    subsequent :meth:`execute` is then pure data movement: bind the stored
    route to the byte records of the columns, one fused exchange, one gather
    into place — no index columns on the wire, no count exchange, no
    revalidation.

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

    Indices that cannot be planned (a ghost index, a target that is not a
    rank, targets that are not a permutation onto ``new_counts``) raise
    before anything is exchanged or charged.
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
        self.stats = ResortPlanStats()

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
            if idx.size and int(idx.max() >> RESORT_POS_BITS) >= P:
                raise ValueError(
                    f"rank {r}: target rank {int(idx.max() >> RESORT_POS_BITS)} "
                    f"out of range [0, {P})"
                )
            self._indices.append(idx)
        ranks, positions = unpack_resort_index(np.concatenate(self._indices))
        check_target_slots(
            ranks, positions, self.new_counts,
            lambda dst, sent, n: ValueError(
                f"rank {dst}: {sent} resort targets for {n} new-layout slots"
            ),
        )
        total = ranks.shape[0]
        old_offsets = np.concatenate(([0], np.cumsum(self.old_counts, dtype=np.int64)))
        #: the stored schedule: every row's message, without column buffers
        self._route = exchange_route(old_offsets, np.arange(total, dtype=np.int64), ranks)
        inter = self._route.msg_src != self._route.msg_dst
        self._inter_messages = int(inter.sum())
        self._moved_rows = int(np.diff(self._route.row_ptr)[inter].sum())
        self._new_cuts = np.cumsum(self.new_counts, dtype=np.int64)[:-1]

        with machine_span(machine, "resort_plan.compile", op="plan.compile", comm=comm):
            # schedule distribution: the one-off exchange that tells every
            # destination which incoming row lands where.  This is the only
            # time index data travels; executions ship pure payload.
            transport = neighborhood_alltoallv if comm == "neighborhood" else alltoallv
            (arrived,), recv_offsets = transport(
                machine, dataclasses.replace(self._route, columns=(positions,)), COMPILE_PHASE
            )
            slots = np.repeat(recv_offsets[:-1], np.diff(recv_offsets)) + arrived
            #: placement permutation: ``out[p] = arrived[place[p]]``
            self._place = np.empty(total, dtype=np.int64)
            self._place[slots] = np.arange(total, dtype=np.int64)
            # building the inverse permutation is a local 8-byte scatter per row
            machine.copy(
                8.0 * np.asarray(self.new_counts, dtype=np.float64), COMPILE_PHASE
            )

        self.stats.compiles += 1
        machine.count("resort_plan.compiles")

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
            original counts.  Malformed columns raise before anything is
            exchanged or charged.

        Returns
        -------
        The columns in the changed order and distribution, same structure
        and dtypes as the input; the per-rank arrays of one column are
        disjoint row slices of one buffer.
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
        for r in range(P):
            n = self.old_counts[r]
            for c, col in enumerate(cols):
                if col[r].shape[0] != n:
                    raise ValueError(
                        f"column {c}, rank {r}: data has {col[r].shape[0]} rows, "
                        f"original particle count was {n}"
                    )
        with machine_span(
            machine, "resort_plan.execute", op="plan.execute",
            columns=len(cols), comm=self.comm,
        ):
            # fuse the columns once, for all ranks, into one byte record per
            # row: a staged engine or a backend then ships one array per
            # message however many columns ride along (docs/performance.md)
            total = self.total_rows
            bounds = np.concatenate(([0], np.cumsum([spec.row_bytes for spec in specs]))).tolist()
            records = np.empty((total, bounds[-1]), dtype=np.uint8)
            for c, (col, spec) in enumerate(zip(cols, specs)):
                records[:, bounds[c]:bounds[c + 1]] = (
                    np.concatenate(col).view(np.uint8).reshape(total, spec.row_bytes)
                )
            exchange = dataclasses.replace(self._route, columns=(records,))
            record_bytes = exchange.row_nbytes
            machine.copy(np.asarray(self.old_counts, dtype=np.float64) * record_bytes, phase)
            if self.comm == "neighborhood":
                transport = neighborhood_alltoallv
            else:
                # counts are part of the plan: skip the dense count exchange
                transport = functools.partial(alltoallv, count_exchange="cached")
            (arrived,), _ = transport(machine, exchange, phase)
            placed = np.take(arrived, self._place, axis=0)
            out = [
                np.split(
                    np.ascontiguousarray(placed[:, bounds[c]:bounds[c + 1]])
                    .view(spec.dtype)
                    .reshape((total,) + spec.trailing),
                    self._new_cuts,
                )
                for c, spec in enumerate(specs)
            ]
            machine.copy(np.asarray(self.new_counts, dtype=np.float64) * record_bytes, phase)
            self._count_execution(
                phase, len(cols), self._inter_messages, self._moved_rows * record_bytes
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
