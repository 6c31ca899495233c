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
  (:func:`~repro.core.fine_grained.counted_route`): the ``(source, target)``
  messages of one exchange and the rows each carries, counted, not listed,
* one *placement* permutation gathering every original row into its target
  position, read straight off the indices; the **one** schedule-distribution
  exchange of the target positions is charged at compile time, after which
  data exchanges no longer carry any index column at all,
* the communication strategy (general or neighborhood all-to-all).  Because
  the counts are part of the plan, executions skip the dense
  ``MPI_Alltoall`` count exchange (``count_exchange="cached"``).

Executing a plan moves arbitrarily many data columns of mixed dtype in **one**
exchange: the stored route is bound to the typed columns of all ranks as
they are and charged as one :class:`~repro.simmpi.collectives.Exchange`, and
each column goes from the caller's buffer into place with one gather.  Sending ``k`` columns
therefore costs one message round instead of ``k`` — exactly the per-array
savings the ``FCS.resort`` redesign exposes to applications.

Plans carry their own statistics (:class:`ResortPlanStats`) and report them
into the machine trace counters (``resort_plan.*``) and, when a
:class:`~repro.verify.audit.CommAuditor` is attached, into the auditor's
independent plan ledger so the savings are observable *and* cross-checked.

Plan executions call :func:`~repro.simmpi.collectives.alltoallv` and hence
compose with the staged collective-algorithm engines
(:mod:`repro.simmpi.algos`): under e.g. ``alltoallv=bruck`` the exchange is
charged through the staged rounds, still with ``count_exchange="cached"``
(the plan's cached counts spare even the staged engines their dense count
exchange), and the placed columns stay bitwise identical.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.fine_grained import COMM_KINDS, counted_route
from repro.core.particles import RankMajor
from repro.core.resort import RESORT_POS_BITS, check_target_slots, unpack_resort_index
from repro.obs.spans import machine_span
from repro.simmpi.collectives import alltoallv, neighborhood_alltoallv
from repro.simmpi.machine import Machine

__all__ = ["COMM_KINDS", "ResortPlan", "ResortPlanStats"]

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


def _flat_column(
    column: Union[RankMajor, Sequence[np.ndarray]], index: int, offsets: np.ndarray
) -> np.ndarray:
    """One data column as a flat array over the plan's original layout.

    A :class:`RankMajor` column is taken as it is; one array per rank (what a
    caller outside the library holds) is validated — same dtype and trailing
    shape on every rank — and concatenated once, in that dtype.  Either way
    the rows per rank must be the plan's original counts.
    """
    nprocs = offsets.shape[0] - 1
    if len(column) != nprocs:
        raise ValueError(f"column {index}: {len(column)} per-rank arrays for {nprocs} ranks")
    if not isinstance(column, RankMajor):
        first = column[0]
        for r, arr in enumerate(column):
            if np.dtype(arr.dtype) != np.dtype(first.dtype):
                raise ValueError(
                    f"column {index}: rank {r} has dtype {arr.dtype}, rank 0 has {first.dtype}"
                )
            if arr.shape[1:] != first.shape[1:]:
                raise ValueError(
                    f"column {index}: rank {r} has trailing shape {arr.shape[1:]}, "
                    f"rank 0 has {first.shape[1:]}"
                )
        # concatenated in the column's own dtype: numpy would make a
        # non-native byte order native
        column = RankMajor(
            np.concatenate(column, dtype=first.dtype),
            np.concatenate(([0], np.cumsum([len(arr) for arr in column], dtype=np.int64))),
        )
    if 0 in column.data.shape[1:]:
        raise ValueError(f"column {index}: zero-size rows cannot be redistributed")
    r = column.first_ragged(offsets)
    if r is not None:
        raise ValueError(
            f"column {index}, rank {r}: data has {int(column.counts[r])} rows, "
            f"original particle count was {int(offsets[r + 1] - offsets[r])}"
        )
    return np.ascontiguousarray(column.data)


class ResortPlan:
    """A compiled, reusable redistribution schedule for one set of resort
    indices.

    Compiling unpacks every packed (target rank, target position) value,
    validates once that the targets form a permutation onto the new layout,
    counts the rows per target into the route of one exchange and charges
    the distribution of the target positions to their owners along it.
    Every subsequent :meth:`execute` is then pure data movement: the stored
    route bound to the columns is charged as one exchange, and one gather
    per column puts the rows in place — no index columns on the wire, no
    count exchange, no revalidation.

    Parameters
    ----------
    machine:
        the machine the schedule is compiled for.
    resort_indices:
        the packed target locations of the original particles, rank-major
        (what a method-B :class:`~repro.solvers.base.RunReport` provides) or
        as one array per original rank.
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
        self.stats = ResortPlanStats()

        resort_indices = RankMajor.of(resort_indices)
        #: the plan's key: the resort indices, rank-major
        self._indices = np.asarray(resort_indices.data, dtype=np.int64)
        self._old_offsets = np.concatenate(([0], np.cumsum(self.old_counts, dtype=np.int64)))
        r = resort_indices.first_ragged(self._old_offsets)
        if r is not None:
            raise ValueError(
                f"rank {r}: {int(resort_indices.counts[r])} resort indices for "
                f"{self.old_counts[r]} original particles"
            )
        idx = self._indices
        bad = np.flatnonzero((idx < 0) | (idx >> RESORT_POS_BITS >= P))
        if bad.size:
            r = int(np.searchsorted(self._old_offsets, bad[0], side="right")) - 1
            mine = idx[self._old_offsets[r]:self._old_offsets[r + 1]]
            if np.any(mine < 0):
                raise ValueError(f"rank {r}: invalid (ghost) resort index cannot be planned")
            raise ValueError(
                f"rank {r}: target rank {int(mine.max() >> RESORT_POS_BITS)} "
                f"out of range [0, {P})"
            )
        ranks, positions = unpack_resort_index(idx)
        check_target_slots(
            ranks, positions, self.new_counts,
            lambda dst, sent, n: ValueError(
                f"rank {dst}: {sent} resort targets for {n} new-layout slots"
            ),
        )
        total = ranks.shape[0]
        #: the stored schedule: every message and its row count, no row listed
        self._route = counted_route(self._old_offsets, ranks)
        inter = self._route.msg_src != self._route.msg_dst
        self._inter_messages = int(inter.sum())
        self._moved_rows = int(self._route.sent[inter].sum())
        self._new_offsets = np.concatenate(([0], np.cumsum(self.new_counts, dtype=np.int64)))

        with machine_span(machine, "resort_plan.compile", op="plan.compile", comm=comm):
            # schedule distribution: the one-off exchange that tells every
            # destination which incoming row lands where.  This is the only
            # time index data is charged; executions charge pure payload.
            transport = neighborhood_alltoallv if comm == "neighborhood" else alltoallv
            transport(
                machine, dataclasses.replace(self._route, columns=(positions,)), COMPILE_PHASE
            )
            #: placement permutation, read off the indices: ``out[p] = column[place[p]]``
            self._place = np.empty(total, dtype=np.int64)
            self._place[self._new_offsets[ranks] + positions] = np.arange(total, dtype=np.int64)
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

        Fast path: the identical rank-major array (the common repeated-call
        case) is accepted without touching the data; otherwise the indices are
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
        if len(resort_indices) != len(self.old_counts):
            return False
        theirs = RankMajor.of(resort_indices)
        return theirs.data is self._indices or (
            np.array_equal(theirs.offsets, self._old_offsets)
            and np.array_equal(theirs.data, self._indices)
        )

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        columns: Sequence[Union[RankMajor, Sequence[np.ndarray]]],
        *,
        phase: Optional[str] = None,
    ) -> List[RankMajor]:
        """Redistribute data columns in one fused exchange.

        Parameters
        ----------
        columns:
            each column rank-major (a :class:`RankMajor` array) in the
            *original* order and distribution, or as one array per rank
            (``columns[c][r]``, concatenated once, here); columns may mix
            dtypes and trailing shapes (``(n,)``, ``(n, k)``, ...), but each
            column must be consistent across ranks and row counts must equal
            the plan's original counts.  Malformed columns raise before
            anything is exchanged or charged.

        Returns
        -------
        The columns in the changed order and distribution, same dtypes as
        the input: one :class:`RankMajor` array per column, each its own
        buffer cut by the new counts.
        """
        machine = self.machine
        phase = phase if phase is not None else self.phase
        if not columns:
            raise ValueError("at least one data column is required")
        flat = [_flat_column(col, c, self._old_offsets) for c, col in enumerate(columns)]
        with machine_span(
            machine, "resort_plan.execute", op="plan.execute",
            columns=len(flat), comm=self.comm,
        ):
            exchange = dataclasses.replace(self._route, columns=tuple(flat))
            row_bytes = exchange.row_nbytes
            machine.copy(np.asarray(self.old_counts, dtype=np.float64) * row_bytes, phase)
            if self.comm == "neighborhood":
                transport = neighborhood_alltoallv
            else:
                # counts are part of the plan: skip the dense count exchange
                transport = functools.partial(alltoallv, count_exchange="cached")
            transport(machine, exchange, phase)  # charged; the gathers move the rows
            out = [RankMajor(np.take(col, self._place, axis=0), self._new_offsets) for col in flat]
            machine.copy(np.asarray(self.new_counts, dtype=np.float64) * row_bytes, phase)
            self._count_execution(
                phase, len(flat), self._inter_messages, self._moved_rows * row_bytes
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
            f"ResortPlan(nprocs={self.machine.nprocs}, rows={int(sum(self.old_counts))}, "
            f"comm={self.comm!r}, executions={self.stats.executions})"
        )
