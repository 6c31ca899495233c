"""Unified observability layer: span tracing, metrics, timeline export.

The three pieces (see docs/observability.md):

* :mod:`repro.obs.spans` — the :class:`ObsRecorder` attached to a machine
  (``enable_observability``) captures every charged cost as a span in a
  bounded per-rank ring buffer, plus structural section/mark spans from the
  higher layers.
* :mod:`repro.obs.metrics` — a deterministic counters/gauges/histograms
  registry with a stable names/labels schema, fed by ``simmpi``,
  ``core.plan``, ``core.balance`` and the solvers.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto-loadable)
  and a deterministic NDJSON snapshot format for golden tests.

``python -m repro.obs`` runs a paper-style scenario with the recorder
attached and emits the trace artifacts plus per-rank timeline and
phase-attribution tables.

The layer is strictly opt-in: without a recorder attached every hook is a
``machine.obs is None`` check and runs are byte-identical to builds without
the subsystem.
"""

from repro.obs.export import (
    to_chrome_trace,
    to_ndjson,
    write_chrome_trace,
    write_ndjson,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import (
    MACHINE_RANK,
    ObsRecorder,
    Span,
    enable_observability,
    machine_span,
)

__all__ = [
    "MACHINE_RANK",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsRecorder",
    "Span",
    "enable_observability",
    "machine_span",
    "to_chrome_trace",
    "to_ndjson",
    "write_chrome_trace",
    "write_ndjson",
]
