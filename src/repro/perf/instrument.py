"""Wall-clock observability primitives: kernel timers, allocation counters,
and the vectorized-vs-scalar-oracle dispatch switch.

The whole repository charges *modeled* (virtual-clock) time through the
:class:`~repro.simmpi.machine.Machine`; this module is the only place that
touches the *host* clock.  Three independent facilities, all global and all
off by default:

kernel timers
    Hot kernels report ``(wall ns, op count, net allocated bytes)`` per call
    into a process-global registry while a :func:`collect` block is active.
    When collection is off the per-call overhead is a single module-global
    flag check.

wall-phase attribution
    While a :func:`wall_phases` block is active, every charge
    (:meth:`Machine.commit <repro.simmpi.machine.Machine.commit>`) attributes
    the host nanoseconds elapsed since the machine's previous charge point
    to the charged phase label, via :meth:`Trace.record_wall
    <repro.simmpi.tracing.Trace.record_wall>`.  Every simulated phase then
    carries both modeled seconds and host wall seconds.  The attribution is
    a charge-point partition of host time: the code that *produces* a charge
    owns the host time leading up to it — exact for the single-machine
    benchmark runs, approximate when several machines interleave.

reference mode
    Each vectorized hot kernel retains its original scalar implementation
    under a ``*_reference`` name; inside a :func:`reference_mode` block the
    public entry points route through the oracles instead.  The equivalence
    test suite (``tests/perf/``) asserts the two paths are bitwise identical
    in outputs, modeled clocks and trace — host speed is the *only* thing
    the switch may change.

Allocation counters piggyback on :mod:`tracemalloc`: when the interpreter is
tracing (``collect(trace_alloc=True)`` starts it), kernel timers and phase
attribution additionally record the net traced bytes over the measured span
(negative when the span frees more than it allocates).
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import tracemalloc
from typing import Dict, Iterator, Optional

__all__ = [
    "KernelStats",
    "collect",
    "collecting",
    "export_metrics",
    "kernel_timer",
    "prefer_reference",
    "record",
    "reference_mode",
    "reset",
    "snapshot",
    "stats",
    "wall_phases",
    "wall_phases_enabled",
]

# module-global switches: read on hot paths, mutated only by the context
# managers below (the harness and the test suites are single-threaded)
_COLLECTING = False
_REFERENCE = False
_WALL_PHASES = False


@dataclasses.dataclass
class KernelStats:
    """Aggregated wall-clock statistics of one named kernel.

    ``ops`` is the kernel's own workload unit (pairs built, rows packed,
    tensor entries filled, ...) so ``ns_per_op`` is comparable across calls
    of different sizes.  ``alloc_bytes`` is the net tracemalloc delta over
    the timed spans (0 unless tracemalloc was tracing).
    """

    calls: int = 0
    ns: int = 0
    ops: int = 0
    alloc_bytes: int = 0

    @property
    def ns_per_op(self) -> float:
        return self.ns / self.ops if self.ops else float(self.ns)

    def add(self, ns: int, ops: int, alloc_bytes: int = 0) -> None:
        self.calls += 1
        self.ns += int(ns)
        self.ops += int(ops)
        self.alloc_bytes += int(alloc_bytes)


_REGISTRY: Dict[str, KernelStats] = {}


def collecting() -> bool:
    """Whether kernel timers are currently recording."""
    return _COLLECTING


def prefer_reference() -> bool:
    """Whether kernels should route through their ``*_reference`` oracles."""
    return _REFERENCE


def wall_phases_enabled() -> bool:
    """Whether machines attribute host wall time to trace phases."""
    return _WALL_PHASES


def record(name: str, ns: int, ops: int = 1, alloc_bytes: int = 0) -> None:
    """Report one kernel invocation (no-op unless :func:`collect` is active)."""
    if not _COLLECTING:
        return
    entry = _REGISTRY.get(name)
    if entry is None:
        entry = _REGISTRY[name] = KernelStats()
    entry.add(ns, ops, alloc_bytes)


def stats(name: str) -> KernelStats:
    """Aggregated stats of one kernel (zeros if never recorded)."""
    return _REGISTRY.get(name, KernelStats())


def snapshot() -> Dict[str, KernelStats]:
    """Copy of the whole kernel registry."""
    return {k: dataclasses.replace(v) for k, v in _REGISTRY.items()}


def reset() -> None:
    """Clear the kernel registry."""
    _REGISTRY.clear()


def _traced_bytes() -> int:
    return tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0


@contextlib.contextmanager
def kernel_timer(name: str, ops: int = 1) -> Iterator[None]:
    """Time a block as one kernel invocation of ``ops`` operations.

    Cheap no-op when collection is off.  Used by the instrumented kernels
    themselves; benchmark code may also use it directly.
    """
    if not _COLLECTING:
        yield
        return
    a0 = _traced_bytes()
    t0 = time.perf_counter_ns()
    try:
        yield
    finally:
        ns = time.perf_counter_ns() - t0
        record(name, ns, ops, _traced_bytes() - a0)


@contextlib.contextmanager
def collect(*, clear: bool = True, trace_alloc: bool = False) -> Iterator[Dict[str, KernelStats]]:
    """Enable kernel timers for the duration of the block.

    Yields the live registry dict.  ``clear`` empties the registry on entry;
    ``trace_alloc`` starts :mod:`tracemalloc` for the block (stopped again on
    exit unless it was already tracing), enabling the allocation counters.
    """
    global _COLLECTING
    if clear:
        reset()
    started_tracing = False
    if trace_alloc and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    prev = _COLLECTING
    _COLLECTING = True
    try:
        yield _REGISTRY
    finally:
        _COLLECTING = prev
        if started_tracing:
            tracemalloc.stop()


@contextlib.contextmanager
def reference_mode(active: bool = True) -> Iterator[None]:
    """Route the vectorized kernels through their scalar oracles."""
    global _REFERENCE
    prev = _REFERENCE
    _REFERENCE = bool(active)
    try:
        yield
    finally:
        _REFERENCE = prev


@contextlib.contextmanager
def wall_phases(*, trace_alloc: bool = False) -> Iterator[None]:
    """Attribute host wall nanoseconds to trace phase labels.

    Machines constructed *or charged* inside the block attribute the host
    time between consecutive charge points to the later charge's phase; see
    the module docstring for the attribution semantics.
    """
    global _WALL_PHASES
    started_tracing = False
    if trace_alloc and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    prev = _WALL_PHASES
    _WALL_PHASES = True
    try:
        yield
    finally:
        _WALL_PHASES = prev
        if started_tracing:
            tracemalloc.stop()


def wall_anchor() -> tuple:
    """Current ``(perf_counter_ns, traced_bytes)`` charge-point anchor."""
    return time.perf_counter_ns(), _traced_bytes()


def export_metrics(registry=None):
    """Fold the current kernel snapshot into a
    :class:`~repro.obs.metrics.MetricsRegistry` under the ``kernel.*``
    names (creating a fresh registry when none is given)."""
    from repro.obs.metrics import MetricsRegistry, merge_kernel_stats

    if registry is None:
        registry = MetricsRegistry()
    merge_kernel_stats(registry, snapshot())
    return registry
