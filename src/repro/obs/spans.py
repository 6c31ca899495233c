"""Span-based structured tracing over the simulated machine.

Every cost the :class:`~repro.simmpi.machine.Machine` charges — clock
advances, collectives, point-to-point rounds — emits a
:class:`Span` into a bounded per-rank ring buffer when an
:class:`ObsRecorder` is attached (``machine.obs``, the second listener of
the charge funnel beside ``machine.auditor``).  Higher layers add *section* spans
(solver runs, simulation steps, plan compiles/executions) and *mark* spans
(balance triggers), giving the flat charge stream a tree structure.

Span taxonomy
-------------
``kind="charge"``
    One trace charge, recorded on the machine-wide critical path
    (``rank == MACHINE_RANK``).  ``time`` carries the *exact* float the
    charge site reported into :meth:`Trace.record
    <repro.simmpi.tracing.Trace.record>`, in the same call order:
    :meth:`Machine.commit <repro.simmpi.machine.Machine.commit>` hands the
    same floats to both in one call (the golden NDJSON tests pin the span
    content).
``kind="rank"``
    The per-rank view of a charge: one span per rank whose local clock
    moved, anchored to that rank's clock interval.  Rank clocks lag the
    machine maximum, so rank spans are *not* time-contained in their parent
    section — containment is a critical-path property (see
    docs/observability.md).
``kind="section"``
    A structural span opened/closed around a region (``fcs.run``, ``step``,
    ``resort_plan.compile``...).  Appended to the buffer at close, so
    children precede their parent in stream order; the tree is rebuilt via
    ``id``/``parent``.
``kind="mark"``
    An instantaneous event (zero duration), e.g. a balance trigger.

The recorder is **opt-in and cost-free when absent**: it is a listener of
the machine's charge funnel (:meth:`Machine.commit
<repro.simmpi.machine.Machine.commit>` / :meth:`Machine.count
<repro.simmpi.machine.Machine.count>`), the only code that calls the hooks
below, so a run without a recorder is byte-identical to a run on a build
without the observability layer at all.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MACHINE_RANK",
    "ROOT_SPAN",
    "Span",
    "ObsRecorder",
    "enable_observability",
    "machine_span",
]

#: pseudo-rank of machine-wide (critical-path) spans
MACHINE_RANK = -1

#: parent id of top-level spans
ROOT_SPAN = -1


class Span(NamedTuple):
    """One observed interval: ``(rank, phase, parent, t_start, t_end, attrs)``.

    ``time`` is the span's attributed duration; for ``kind="charge"`` it is
    the exact critical-path seconds charged into the trace (``t_end -
    t_start`` up to float rounding — ``time`` is authoritative for sums).

    A named tuple: immutable and compared field by field like the frozen
    dataclass it replaces, at a fraction of the construction cost (a traced
    run builds one per rank per charge).
    """

    id: int
    parent: int
    rank: int
    phase: str
    op: str
    kind: str
    t_start: float
    t_end: float
    time: float
    messages: int = 0
    nbytes: int = 0
    attrs: Tuple[Tuple[str, Any], ...] = ()

    def attrs_dict(self) -> Dict[str, Any]:
        return dict(self.attrs)


def _freeze_attrs(attrs: Optional[Dict[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not attrs:
        return ()
    return tuple(sorted(attrs.items()))


class ObsRecorder:
    """Bounded per-rank span buffers plus a live metrics registry.

    Attach with :func:`enable_observability`; every buffer is a ring of
    ``capacity`` spans (oldest spans are dropped, counted per rank in
    :attr:`dropped`).  ``per_rank=False`` records only the machine-wide
    stream, halving the per-charge overhead for large machines.
    """

    def __init__(
        self,
        machine,
        *,
        capacity: int = 65536,
        per_rank: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.machine = machine
        self.nprocs = int(machine.nprocs)
        self.capacity = int(capacity)
        self.per_rank = bool(per_rank)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._rings: Dict[int, deque] = {MACHINE_RANK: deque(maxlen=self.capacity)}
        if self.per_rank:
            for r in range(self.nprocs):
                self._rings[r] = deque(maxlen=self.capacity)
        self._dropped: Dict[int, int] = {}
        self._ids = itertools.count(1)
        self._stack: List[int] = []
        #: True while the recorder observed *every* charge since the trace
        #: was last empty (cleared when attached to a machine that already
        #: charged)
        self.complete_from_start = (
            machine.trace.total_time() == 0.0
            and machine.trace.total_messages() == 0
        )

    # -- low-level append ------------------------------------------------------

    def _append(self, rank: int, span: Span) -> None:
        ring = self._rings[rank]
        if len(ring) == ring.maxlen:
            self._dropped[rank] = self._dropped.get(rank, 0) + 1
        ring.append(span)

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else ROOT_SPAN

    # -- funnel listener hooks (called by Machine.commit / Machine.count) ------

    def on_charge(
        self,
        phase: Optional[str],
        op: str,
        time: float,
        t_start: float,
        t_end: float,
        messages: int,
        nbytes: int,
        rank_before: Optional[np.ndarray],
        clocks: np.ndarray,
    ) -> None:
        """Record one trace charge: a machine-wide ``charge`` span carrying
        the exact charged ``time``, plus per-rank ``rank`` spans for every
        rank whose clock moved (when ``per_rank``)."""
        label = phase if phase is not None else "other"
        parent = self._parent()
        # the hot path builds spans positionally (a third of the keyword
        # cost): id, parent, rank, phase, op, kind, t_start, t_end, time, ...
        self._append(
            MACHINE_RANK,
            Span(next(self._ids), parent, MACHINE_RANK, label, op, "charge",
                 t_start, t_end, time, messages, nbytes),
        )
        if rank_before is not None and self.per_rank:
            # Python floats subtract bit for bit as float64 scalars do
            for r, (before, after) in enumerate(zip(rank_before.tolist(), clocks.tolist())):
                delta = after - before
                if delta != 0.0:
                    self._append(
                        r,
                        Span(next(self._ids), parent, r, label, op, "rank",
                             before, after, delta),
                    )
        self._count_traffic(label, messages, nbytes)

    def on_rank_charge(
        self,
        phase: Optional[str],
        op: str,
        time: float,
        rank: int,
        rank_t_start: float,
        rank_t_end: float,
        t_end: float,
        messages: int = 0,
        nbytes: int = 0,
    ) -> None:
        """Record a charge originating on a single rank: the machine-wide
        ``charge`` span plus the one rank-local span.  No caller; kept only
        because perfbench/trace.py::LAYERS traces it."""
        label = phase if phase is not None else "other"
        self._append(
            MACHINE_RANK,
            Span(
                id=next(self._ids),
                parent=self._parent(),
                rank=MACHINE_RANK,
                phase=label,
                op=op,
                kind="charge",
                t_start=t_end - time,
                t_end=t_end,
                time=time,
                messages=messages,
                nbytes=nbytes,
            ),
        )
        if self.per_rank and rank_t_end != rank_t_start:
            self._append(
                rank,
                Span(
                    id=next(self._ids),
                    parent=self._parent(),
                    rank=rank,
                    phase=label,
                    op=op,
                    kind="rank",
                    t_start=rank_t_start,
                    t_end=rank_t_end,
                    time=rank_t_end - rank_t_start,
                ),
            )
        self._count_traffic(label, messages, nbytes)

    def _count_traffic(self, label: str, messages: int, nbytes: int) -> None:
        m = self.metrics
        if messages:
            m.counter("comm.messages", phase=label).inc(messages)
        if nbytes:
            m.counter("comm.bytes", phase=label).inc(nbytes)
            m.histogram("comm.payload_nbytes").observe(nbytes)

    def on_count(self, name: str, value: int, labels: Dict[str, Any]) -> None:
        """Mirror one :meth:`Machine.count
        <repro.simmpi.machine.Machine.count>` event into the registry."""
        self.metrics.counter(name, **labels).inc(value)

    # -- structural spans ------------------------------------------------------

    @contextmanager
    def span(self, phase: str, *, op: str = "section", **attrs):
        """Open a structural span around a region of virtual time.

        The span is appended when the region closes; spans emitted inside
        the region carry its id as ``parent``.
        """
        sid = next(self._ids)
        parent = self._parent()
        t0 = self.machine.elapsed()
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            t1 = self.machine.elapsed()
            self._append(
                MACHINE_RANK,
                Span(
                    id=sid,
                    parent=parent,
                    rank=MACHINE_RANK,
                    phase=phase,
                    op=op,
                    kind="section",
                    t_start=t0,
                    t_end=t1,
                    time=t1 - t0,
                    attrs=_freeze_attrs(attrs),
                ),
            )

    def mark(self, phase: str, *, op: str = "mark", **attrs) -> None:
        """Record an instantaneous event at the current virtual time."""
        t = self.machine.elapsed()
        self._append(
            MACHINE_RANK,
            Span(
                id=next(self._ids),
                parent=self._parent(),
                rank=MACHINE_RANK,
                phase=phase,
                op=op,
                kind="mark",
                t_start=t,
                t_end=t,
                time=0.0,
                attrs=_freeze_attrs(attrs),
            ),
        )

    # -- read API --------------------------------------------------------------

    def ranks(self) -> List[int]:
        """Buffered ranks in deterministic order (machine stream first)."""
        return [MACHINE_RANK] + [r for r in range(self.nprocs) if r in self._rings]

    def spans(self, rank: Optional[int] = None) -> Iterator[Span]:
        """Iterate spans — one rank's stream, or all streams in rank order."""
        if rank is not None:
            yield from self._rings[rank]
            return
        for r in self.ranks():
            yield from self._rings[r]

    def span_count(self, rank: Optional[int] = None) -> int:
        if rank is not None:
            return len(self._rings[rank])
        return sum(len(ring) for ring in self._rings.values())

    @property
    def dropped(self) -> Dict[int, int]:
        """Spans evicted from full rings, per rank (empty when none)."""
        return dict(self._dropped)

    @property
    def complete(self) -> bool:
        """Whether the machine stream still holds *every* charge observed:
        attached before the first charge and nothing evicted — exported in
        the NDJSON header."""
        return self.complete_from_start and not self._dropped.get(MACHINE_RANK)

    def rank_busy(self) -> Dict[int, float]:
        """Per-rank busy seconds: summed rank-span durations."""
        out: Dict[int, float] = {}
        for r in self.ranks():
            if r == MACHINE_RANK:
                continue
            out[r] = sum(s.time for s in self._rings[r])
        return out

    def clear(self) -> None:
        """Drop all buffered spans, dropped counts and metrics (a checkpoint
        restore calls this so spans never outlive the trace they mirror)."""
        for ring in self._rings.values():
            ring.clear()
        self._dropped.clear()
        self._stack.clear()
        self.metrics.clear()
        self.complete_from_start = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObsRecorder(nprocs={self.nprocs}, spans={self.span_count()}, "
            f"capacity={self.capacity}, dropped={sum(self._dropped.values())})"
        )


def enable_observability(
    machine,
    *,
    capacity: int = 65536,
    per_rank: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> ObsRecorder:
    """Attach an :class:`ObsRecorder` to ``machine`` (as ``machine.obs``).

    Mirrors :func:`repro.verify.enable_auditing`: the recorder observes
    every subsequent charge; detach by setting ``machine.obs = None``.
    Attach before the first charge for a :attr:`~ObsRecorder.complete`
    record.
    """
    recorder = ObsRecorder(
        machine, capacity=capacity, per_rank=per_rank, metrics=metrics
    )
    machine.obs = recorder
    return recorder


class _NullSpan:
    """Zero-cost stand-in for :meth:`ObsRecorder.span` when no recorder is
    attached."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def machine_span(machine, phase: str, *, op: str = "section", **attrs):
    """Structural span on ``machine``'s recorder, or a no-op context when
    none is attached — the one-liner instrumentation hook for higher layers
    (``core.plan``, ``core.handle``, ``md.simulation``)."""
    obs = getattr(machine, "obs", None)
    if obs is None:
        return _NULL_SPAN
    return obs.span(phase, op=op, **attrs)
