"""Communication auditor: checking mode for the simmpi transport layer.

When a :class:`CommAuditor` is attached to a
:class:`~repro.simmpi.machine.Machine` (via :func:`enable_auditing` or
``machine.auditor = CommAuditor(...)``), the communication primitives in
:mod:`repro.simmpi.collectives` and :mod:`repro.simmpi.p2p` report every
exchange to it.  The auditor then

* validates every **message of a raw table**: both endpoints must be valid
  ranks and the payload byte size non-negative — what a real
  ``MPI_Alltoallv`` cannot check for you and whose violation silently
  corrupts a redistribution;
* verifies **neighborhood exchanges** only touch declared Cartesian
  neighbors (the caller-guarantees contract of the sparse count-exchange
  path, Sect. III-B of the paper);
* keeps an **independent per-phase ledger** of message counts and byte
  volumes, recomputed from the raw send tables rather than copied from the
  primitives' own accounting, so the ``trace-accounting`` invariant can
  cross-check what the collectives reported into the
  :class:`~repro.simmpi.tracing.Trace`.  Only tree collectives, which have
  no table to recompute from, reach the ledger as stated: the machine's
  charge funnel mirrors their totals (:meth:`CommAuditor.on_mirrored_charge`).

The auditor never changes what the primitives do — it only observes and
raises :class:`CommAuditError` on violation.  Every observer is one set of
array operations over the ``(src, dst, nbytes)`` message triples of its
table; nothing it allocates grows faster than the message count.  A check
lives here only if it compares two independently derived quantities: the
receive side of a sparse send table is its transpose by construction, a
primitive's round completes every send it posts, and
:func:`~repro.simmpi.p2p.exchange_pairs` rejects an overlapping round
itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.simmpi.tracing import PhaseStats

__all__ = [
    "CommAuditError",
    "CommAuditor",
    "enable_auditing",
]


class CommAuditError(AssertionError):
    """A communication contract was violated (asymmetric counts, invalid
    rank, non-neighbor traffic, ...)."""


#: the per-phase :class:`PhaseLedger` tables of a :class:`CommAuditor`, named
#: once: ``state_dict``/``load_state`` and :func:`repro.verify.dst
#: .ledger_fingerprint` iterate this mapping (the value is the table's row
#: tag in the fingerprint)
LEDGERS = {
    "ledger": "",
    "plan_ledger": "plan:",
    "algo_ledger": "algo:",
    "algo_round_ledger": "algo-round:",
}

#: the auditor's running call totals (diagnostics), named once likewise
COUNTERS = ("n_alltoall_calls", "n_p2p_calls")


@dataclasses.dataclass
class PhaseLedger:
    """Independently recomputed per-phase traffic totals."""

    messages: int = 0
    bytes: int = 0

    def add(self, messages: int, nbytes: int) -> None:
        self.messages += int(messages)
        self.bytes += int(nbytes)

    def state_dict(self) -> Dict[str, int]:
        """The fields by name; ``PhaseLedger(**state)`` is the inverse."""
        return dict(vars(self))


class CommAuditor:
    """Observes and validates every audited communication of one machine.

    Parameters
    ----------
    nprocs:
        rank count of the machine being audited.
    neighbor_table:
        optional per-rank arrays of allowed peer ranks for neighborhood
        exchanges (e.g. the distinct entries of row ``r`` of the
        ``CartGrid.shifted_ranks`` tables of the 27 offsets in
        ``{-1, 0, 1}³``).
        When set, any sparse-count-exchange message outside the table
        raises.  Self-sends are always allowed.
    strict:
        raise :class:`CommAuditError` immediately on violation (default).
        With ``strict=False`` violations are collected in
        :attr:`violations` instead — useful for sweeping audits that should
        report everything rather than stop at the first failure.
    """

    def __init__(
        self,
        nprocs: int,
        neighbor_table: Optional[Sequence[np.ndarray]] = None,
        strict: bool = True,
    ) -> None:
        self.nprocs = int(nprocs)
        self.strict = bool(strict)
        self.violations: List[str] = []
        #: sorted ``src * nprocs + dst`` keys of the declared peer pairs
        self._neighbor_keys: Optional[np.ndarray] = None
        if neighbor_table is not None:
            self.declare_neighbors(neighbor_table)
        #: per-phase totals recomputed from raw send tables (audited
        #: primitives only — compare against Trace via `trace-accounting`)
        self.ledger: Dict[str, PhaseLedger] = {}
        #: per-phase totals *as reported by the resort-plan engine itself*
        #: (self-sends excluded) — an independent third accounting that the
        #: ``plan-accounting`` invariant cross-checks against :attr:`ledger`:
        #: a plan may never claim more traffic for a phase than its audited
        #: exchanges actually produced
        self.plan_ledger: Dict[str, PhaseLedger] = {}
        #: per-phase staged-collective totals *as planned by the algorithm
        #: engines themselves* (:mod:`repro.simmpi.algos`) before their
        #: rounds run — derived from the schedule alone.  The
        #: ``collective-algo-accounting`` invariant asserts these equal
        #: :attr:`algo_round_ledger` exactly: staged forwarding must
        #: balance in the ledger.
        self.algo_ledger: Dict[str, PhaseLedger] = {}
        #: per-phase totals independently re-accounted from the message
        #: arrays of every round executed inside
        #: :meth:`algo_scope` (in addition to the main :attr:`ledger`)
        self.algo_round_ledger: Dict[str, PhaseLedger] = {}
        #: per-``"collective/algorithm"`` call counts (records which
        #: algorithm ``auto`` resolved to on every call)
        self.algo_counts: Dict[str, int] = {}
        self._algo_scope_depth = 0
        #: trace snapshot taken at attach time so the ledger (which only
        #: sees post-attach traffic) compares against trace *deltas*
        self.trace_baseline: Dict[str, object] = {}
        #: running totals of audited calls (diagnostics)
        self.n_alltoall_calls = 0
        self.n_p2p_calls = 0

    # -- violation handling -----------------------------------------------------

    def _fail(self, message: str) -> None:
        if self.strict:
            raise CommAuditError(message)
        self.violations.append(message)

    # -- configuration ----------------------------------------------------------

    def declare_neighbors(self, neighbor_table: Sequence[np.ndarray]) -> None:
        """Declare the allowed peers of every rank for neighborhood traffic."""
        if len(neighbor_table) != self.nprocs:
            raise ValueError(
                f"neighbor table has {len(neighbor_table)} entries for "
                f"{self.nprocs} ranks"
            )
        self._neighbor_keys = np.unique(np.concatenate([
            src * self.nprocs + np.asarray(peers, dtype=np.int64).ravel()
            for src, peers in enumerate(neighbor_table)
        ]))

    # -- ledger -----------------------------------------------------------------

    @staticmethod
    def _add(
        table: Dict[str, PhaseLedger], phase: Optional[str], messages: int, nbytes: int
    ) -> None:
        label = phase if phase is not None else "other"
        ledger = table.get(label)
        if ledger is None:
            ledger = table[label] = PhaseLedger()
        ledger.add(messages, nbytes)

    def _record(self, phase: Optional[str], messages: int, nbytes: int) -> None:
        self._add(self.ledger, phase, messages, nbytes)
        if self._algo_scope_depth > 0:
            self._add(self.algo_round_ledger, phase, messages, nbytes)

    # -- funnel listener hooks ----------------------------------------------------

    def on_mirrored_charge(
        self, phase: Optional[str], messages: int, nbytes: int
    ) -> None:
        """Take a tree collective's modeled totals into the ledger.

        Called by :meth:`Machine.commit
        <repro.simmpi.machine.Machine.commit>` for charges made through
        :meth:`Machine.collective <repro.simmpi.machine.Machine.collective>`
        (allreduce, bcast, gather, barrier, ...): they have no
        user-supplied count table to recompute from, so their totals are
        mirrored to keep phase totals comparable with the trace.
        """
        self._record(phase, messages, nbytes)

    def on_count(self, name: str, value: int, labels: Dict[str, object]) -> None:
        """Fold one :meth:`Machine.count
        <repro.simmpi.machine.Machine.count>` event into :attr:`algo_counts`:
        ``comm.algo.calls`` records which algorithm each staged call resolved
        to (including ``auto`` falling back to ``direct``).  The plan
        engine's counts are the trace's ``resort_plan.*`` counters."""
        if name == "comm.algo.calls":
            key = f"{labels['collective']}/{labels['algo']}"
            self.algo_counts[key] = self.algo_counts.get(key, 0) + value

    # -- plan-engine hook ---------------------------------------------------------

    def observe_plan_execution(
        self, phase: Optional[str], messages: int, nbytes: int
    ) -> None:
        """Record a fused plan execution's self-reported traffic totals.

        The plan computes ``messages``/``nbytes`` from its own cached
        schedule; the exchange it then performs is independently recomputed
        from the raw send table by :meth:`observe_alltoallv`.  The
        ``plan-accounting`` invariant compares the two.
        """
        self._add(self.plan_ledger, phase, messages, nbytes)

    # -- algorithm-engine hooks ---------------------------------------------------

    def observe_algo_collective(
        self,
        collective: str,
        algo: str,
        phase: Optional[str],
        messages: int,
        nbytes: int,
    ) -> None:
        """Record a staged engine's schedule-derived planned totals.

        The engine then executes its rounds inside :meth:`algo_scope`,
        where every :func:`~repro.simmpi.p2p.charge_round` is independently
        re-accounted into :attr:`algo_round_ledger`; the
        ``collective-algo-accounting`` invariant asserts exact agreement.
        """
        self._add(self.algo_ledger, phase, messages, nbytes)

    @contextlib.contextmanager
    def algo_scope(self):
        """Context manager marking the staged rounds of one engine call."""
        self._algo_scope_depth += 1
        try:
            yield self
        finally:
            self._algo_scope_depth -= 1

    # -- raw-table observers -------------------------------------------------------

    def _observe(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        phase: Optional[str],
        *,
        neighborhood: bool = False,
        record: bool = True,
    ) -> None:
        """Audit one call's messages, given as parallel int64 arrays.

        Violations are reported per message, in table order; the remote
        messages (self-sends are local moves, like in the trace) are added to
        the ledger.  Nothing here is sized by the rank count.
        """
        P = self.nprocs
        valid = (src >= 0) & (src < P) & (dst >= 0) & (dst < P)
        remote = valid & (dst != src)
        bad = ~valid | (nbytes < 0)
        if neighborhood and self._neighbor_keys is not None:
            bad |= remote & ~np.isin(src * P + dst, self._neighbor_keys)
        for k in np.flatnonzero(bad).tolist():
            if not valid[k]:
                self._fail(f"message {src[k]}->{dst[k]} names an invalid rank (of {P})")
            elif nbytes[k] < 0:
                self._fail(f"rank {src[k]}->{dst[k]}: negative payload size {nbytes[k]}")
            else:
                self._fail(
                    f"neighborhood exchange: rank {src[k]} sends to rank {dst[k]}, "
                    f"which is not a declared neighbor"
                )
        if record:
            self._record(phase, int(remote.sum()), int(nbytes[remote].sum()))

    def observe_alltoallv(
        self,
        sends,
        phase: Optional[str],
        count_exchange: str,
        record: bool = True,
    ) -> None:
        """Audit one (neighborhood_)alltoallv call from its raw send table
        (``list[dict]`` or :class:`~repro.simmpi.collectives.Exchange`).

        ``record=False`` runs every validation (rank range, payload sizes,
        neighborhood contract) without touching the ledger — the staged
        algorithm engines use it, because their ledger traffic is
        re-accounted per round by :meth:`observe_round` instead of
        from the send table.
        """
        from repro.simmpi.collectives import message_triples

        self.n_alltoall_calls += 1
        self._observe(
            *message_triples(sends), phase,
            neighborhood=count_exchange == "sparse", record=record,
        )

    def observe_round(
        self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray, phase: Optional[str]
    ) -> None:
        """Audit one point-to-point round from its ``(src, dst, nbytes)``
        message arrays: a :func:`~repro.simmpi.p2p.charge_round` round, or
        an :func:`~repro.simmpi.p2p.exchange_pairs` round (a Batcher
        comparator round: two messages per pair, ``a -> b`` then ``b -> a``)."""
        self.n_p2p_calls += 1
        self._observe(src, dst, nbytes, phase)

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Complete deep-copied auditor bookkeeping as checkpoint-plain data.

        Captures every :data:`LEDGERS` table and :data:`COUNTERS` total, the
        per-algorithm call counts, the attach-time trace baseline and the
        collected violations — everything
        :func:`ledger_fingerprint <repro.verify.dst.ledger_fingerprint>` and
        the accounting invariants read.  The neighbor table and ``strict``
        flag are *configuration*, not run state, and are left to the
        restoring caller.
        """
        state: Dict[str, object] = {
            name: {k: v.state_dict() for k, v in getattr(self, name).items()}
            for name in LEDGERS
        }
        state.update((name, getattr(self, name)) for name in COUNTERS)
        state.update(
            algo_counts=dict(self.algo_counts),
            trace_baseline={k: v.state_dict() for k, v in self.trace_baseline.items()},
            violations=list(self.violations),
        )
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Replace the auditor's bookkeeping with a :meth:`state_dict` copy.

        Used by :func:`repro.ckpt.restore.restore_simulation` as its final
        act: the restored machine's auditor continues the checkpointed
        ledgers exactly where the original run left them, so the prefix +
        continuation ledger equals the uninterrupted run's.  Absent keys
        load as empty/zero.
        """
        for name in LEDGERS:
            setattr(self, name, {
                str(k): PhaseLedger(**v) for k, v in state.get(name, {}).items()
            })
        for name in COUNTERS:
            setattr(self, name, int(state.get(name, 0)))
        self.algo_counts = {
            str(k): int(v) for k, v in state.get("algo_counts", {}).items()
        }
        self.trace_baseline = {
            str(k): PhaseStats(**v)
            for k, v in state.get("trace_baseline", {}).items()
        }
        self.violations = [str(v) for v in state.get("violations", [])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommAuditor(nprocs={self.nprocs}, alltoall_calls="
            f"{self.n_alltoall_calls}, p2p_calls={self.n_p2p_calls}, "
            f"violations={len(self.violations)})"
        )


def enable_auditing(
    machine,
    neighbor_table: Optional[Sequence[np.ndarray]] = None,
    strict: bool = True,
) -> CommAuditor:
    """Attach a fresh :class:`CommAuditor` to ``machine`` and return it."""
    auditor = CommAuditor(machine.nprocs, neighbor_table=neighbor_table, strict=strict)
    auditor.trace_baseline = machine.trace.snapshot()
    machine.auditor = auditor
    return auditor
