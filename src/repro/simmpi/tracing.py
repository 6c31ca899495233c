"""Per-phase accounting of virtual time, message counts and byte volumes.

The paper's figures decompose solver runtimes into phases (``sort``,
``restore``, ``resort``, ``total``); :class:`Trace` is the single place where
those decompositions come from.  Every communication primitive and every
modeled compute phase reports into the trace under a *phase label*, and the
benchmark harness reads per-phase aggregates back out.

Phase labels are free-form strings.  By convention the redistribution phases
used throughout the repo are:

``sort``
    placing particles into the solver's domain decomposition (parallel
    sorting for the FMM, grid redistribution for the P2NFFT),
``restore``
    method A's restoration of the original particle order and distribution,
``resort``
    method B's redistribution of additional application data via resort
    indices (including the resort-index creation),
``near``/``far``/``mesh``/...
    solver compute phases,
``integrate``
    the application's leapfrog update.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["PhaseStats", "PhaseTable", "Trace"]


@dataclasses.dataclass
class PhaseStats:
    """Aggregated statistics for one phase label.

    Attributes
    ----------
    time:
        Total virtual seconds attributed to the phase.  For communication
        this is the *maximum over ranks* of the clock advance per call,
        summed over calls (i.e. the critical-path view a timer around the
        call would report on a real machine).
    messages:
        Number of point-to-point messages sent (collectives count their
        constituent messages according to the modeled algorithm).
    bytes:
        Payload bytes sent.
    calls:
        Number of primitive invocations attributed to the phase.
    wall_ns:
        Host wall nanoseconds attributed to the phase — populated only while
        :func:`repro.perf.instrument.wall_phases` is active; always 0
        otherwise.  The *modeled* fields above never depend on it.  A fact
        about this host's execution, so it is not checkpointed.
    """

    time: float = 0.0
    messages: int = 0
    bytes: int = 0
    calls: int = 0
    wall_ns: int = 0

    def add(self, time: float = 0.0, messages: int = 0, nbytes: int = 0, calls: int = 1) -> None:
        self.time += time
        self.messages += messages
        self.bytes += nbytes
        self.calls += calls

    def state_dict(self) -> Dict[str, object]:
        """The modeled fields by name — checkpoint-plain; ``PhaseStats(**state)``
        is the inverse (``wall_ns`` loads as 0)."""
        return {"time": self.time, "messages": self.messages,
                "bytes": self.bytes, "calls": self.calls}

    def merged(self, other: "PhaseStats") -> "PhaseStats":
        return PhaseStats(
            time=self.time + other.time,
            messages=self.messages + other.messages,
            bytes=self.bytes + other.bytes,
            calls=self.calls + other.calls,
            wall_ns=self.wall_ns + other.wall_ns,
        )


class PhaseTable(Dict[str, PhaseStats]):
    """A ``{label: PhaseStats}`` mapping with the :class:`Trace` read API.

    Returned by :meth:`Trace.snapshot` and :meth:`Trace.delta_since` so
    snapshots and deltas can be queried exactly like the live trace
    (``table.phase("sort").time``, ``table.time("sort", "restore")``)
    instead of poking at dict internals.  Still a plain ``dict`` underneath.
    """

    def phase(self, label: str) -> PhaseStats:
        """Stats for ``label`` — an independent copy, zeros if absent."""
        stats = self.get(label)
        return PhaseStats() if stats is None else dataclasses.replace(stats)

    def labels(self) -> List[str]:
        """Recorded phase labels, sorted."""
        return sorted(self)

    def items_sorted(self) -> List[Tuple[str, PhaseStats]]:
        """``(label, stats)`` pairs in deterministic (sorted-label) order."""
        return sorted(self.items())

    def time(self, *labels: str) -> float:
        """Summed virtual seconds of ``labels`` (absent labels count 0)."""
        return sum(self.phase(label).time for label in labels)

    def totals(self) -> PhaseStats:
        """All phases merged into one :class:`PhaseStats`."""
        total = PhaseStats()
        for _label, stats in sorted(self.items()):
            total = total.merged(stats)
        return total


class Trace:
    """Mutable per-phase statistics store attached to a :class:`Machine`.

    Besides the per-phase time/message/byte aggregates, the trace carries
    free-form **event counters** (:meth:`bump`/:meth:`counter`) for
    quantities that are not tied to clock advances — e.g. the plan engine's
    ``resort_plan.compiles``/``resort_plan.cache_hits``/
    ``resort_plan.fused_columns``/``resort_plan.bytes_moved`` statistics the
    benchmark harness reads back out.
    """

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStats] = {}
        self._counters: Dict[str, int] = {}
        self._notes: Dict[str, str] = {}
        self._rank_work: Dict[str, np.ndarray] = {}

    def record(
        self,
        phase: Optional[str],
        *,
        time: float = 0.0,
        messages: int = 0,
        nbytes: int = 0,
        calls: int = 1,
    ) -> None:
        """Attribute ``time``/``messages``/``nbytes`` to ``phase``.

        ``phase=None`` records under the catch-all label ``"other"`` so no
        cost is ever silently dropped.
        """
        label = phase if phase is not None else "other"
        stats = self._phases.get(label)
        if stats is None:
            stats = self._phases[label] = PhaseStats()
        stats.add(time=time, messages=messages, nbytes=nbytes, calls=calls)

    def record_wall(self, phase: Optional[str], ns: int) -> None:
        """Attribute host wall nanoseconds to ``phase`` without touching the
        modeled fields or the call count.

        Fed by :meth:`Machine.commit <repro.simmpi.machine.Machine.commit>`
        while :func:`repro.perf.instrument.wall_phases` is active.
        """
        label = phase if phase is not None else "other"
        stats = self._phases.get(label)
        if stats is None:
            stats = self._phases[label] = PhaseStats()
        stats.wall_ns += int(ns)

    # -- v2 read API -------------------------------------------------------------

    def phase(self, label: str) -> PhaseStats:
        """Stats for ``label`` — an independent copy, zeros if absent.

        The safe accessor: mutating the returned object never corrupts the
        trace, and unrecorded labels read as all-zero instead of raising.
        """
        stats = self._phases.get(label)
        return PhaseStats() if stats is None else dataclasses.replace(stats)

    def labels(self) -> List[str]:
        """Recorded phase labels in deterministic (sorted) order."""
        return sorted(self._phases)

    def items(self) -> List[Tuple[str, PhaseStats]]:
        """``(label, stats-copy)`` pairs in deterministic label order."""
        return [(label, dataclasses.replace(self._phases[label]))
                for label in sorted(self._phases)]

    def totals(self) -> PhaseStats:
        """All phases merged into one :class:`PhaseStats`."""
        total = PhaseStats()
        for _label, stats in sorted(self._phases.items()):
            total = total.merged(stats)
        return total

    # -- per-rank work -----------------------------------------------------------

    def record_rank_work(self, phase: Optional[str], per_rank_seconds: np.ndarray) -> None:
        """Accumulate per-rank **nominal** compute seconds under ``phase``.

        The per-phase ``time`` aggregate above is a critical-path (max over
        ranks) view, which erases the load distribution; the load-balancing
        subsystem needs the full per-rank vector to compute the imbalance
        factor λ = max/mean.  Fed by
        :meth:`Machine.compute <repro.simmpi.machine.Machine.compute>` with
        the *pre-perturbation* nominal cost so λ — and any rebalance decision
        derived from it — is schedule-independent (the DST property).
        """
        label = phase if phase is not None else "other"
        work = np.asarray(per_rank_seconds, dtype=np.float64)
        existing = self._rank_work.get(label)
        if existing is None:
            self._rank_work[label] = np.zeros_like(work) + work
        else:
            existing += work

    def rank_work_snapshot(self) -> Dict[str, np.ndarray]:
        """Deep copy of the per-rank work (for delta computation)."""
        return {k: v.copy() for k, v in self._rank_work.items()}

    def rank_work_delta(
        self, snapshot: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Per-phase per-rank work accumulated since a :meth:`rank_work_snapshot`."""
        out: Dict[str, np.ndarray] = {}
        for label, work in self._rank_work.items():
            before = snapshot.get(label)
            d = work - before if before is not None else work.copy()
            if np.any(d != 0.0):
                out[label] = d
        return out

    # -- event counters ---------------------------------------------------------

    def bump(self, name: str, value: int = 1) -> None:
        """Increment the event counter ``name`` by ``value``."""
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def counter(self, name: str) -> int:
        """Current value of an event counter (0 if never bumped)."""
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """Copy of all event counters."""
        return dict(self._counters)

    # -- free-form annotations --------------------------------------------------

    def note(self, key: str, value: str) -> None:
        """Attach a free-form annotation (e.g. the active perturbation).

        Annotations describe the machine this trace runs on, not the
        accumulated statistics: :meth:`clear` and :meth:`load_state` keep
        them, and :meth:`state_dict` does not carry them.
        """
        self._notes[str(key)] = str(value)

    def notes(self) -> Dict[str, str]:
        """Copy of all annotations."""
        return dict(self._notes)

    def total_time(self) -> float:
        return sum(s.time for s in self._phases.values())

    def total_messages(self) -> int:
        return sum(s.messages for s in self._phases.values())

    def snapshot(self) -> PhaseTable:
        """Deep copy of the current per-phase stats (for delta computation)."""
        return PhaseTable(
            (k, dataclasses.replace(v)) for k, v in self._phases.items()
        )

    def delta_since(self, snapshot: Dict[str, PhaseStats]) -> PhaseTable:
        """Per-phase difference between now and an earlier :meth:`snapshot`."""
        out = PhaseTable()
        for label, stats in self._phases.items():
            before = snapshot.get(label, PhaseStats())
            d = PhaseStats(
                time=stats.time - before.time,
                messages=stats.messages - before.messages,
                bytes=stats.bytes - before.bytes,
                calls=stats.calls - before.calls,
                wall_ns=stats.wall_ns - before.wall_ns,
            )
            if d.time or d.messages or d.bytes or d.calls or d.wall_ns:
                out[label] = d
        return out

    # -- checkpointing ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Complete deep-copied trace state as checkpoint-plain data.

        Phases flatten to ``{field: value}`` dicts, so
        :func:`repro.ckpt.format.encode_value` writes the result as-is;
        :meth:`load_state` is the exact inverse.  Together they let
        :mod:`repro.ckpt` freeze a trace mid-run and reinstate it bit-exactly
        on a fresh machine (phases, event counters and the per-rank nominal
        work vectors; the annotations and host wall time describe the
        writing run and stay behind).
        """
        return {
            "phases": {k: v.state_dict() for k, v in self._phases.items()},
            "counters": dict(self._counters),
            "rank_work": {k: v.copy() for k, v in self._rank_work.items()},
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Replace the accumulated statistics with a :meth:`state_dict` copy.

        Copies the input, so the caller's state dict (e.g. a held
        checkpoint) is never aliased by the live trace; absent keys load as
        empty.  This machine's annotations are kept.
        """
        self.clear()
        for label, stats in state.get("phases", {}).items():  # type: ignore[union-attr]
            self._phases[str(label)] = PhaseStats(**stats)
        for name, value in state.get("counters", {}).items():  # type: ignore[union-attr]
            self._counters[str(name)] = int(value)
        for label, work in state.get("rank_work", {}).items():  # type: ignore[union-attr]
            self._rank_work[str(label)] = np.asarray(work, dtype=np.float64).copy()

    def clear(self) -> None:
        """Drop the accumulated statistics; the annotations stay."""
        self._phases.clear()
        self._counters.clear()
        self._rank_work.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(
            f"{k}: {v.time:.3e}s/{v.messages}msg/{v.bytes}B" for k, v in sorted(self._phases.items())
        )
        return f"Trace({rows})"
