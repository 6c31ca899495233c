"""Metrics registry: counters, gauges and histograms with a stable schema.

Names are dotted lowercase (``comm.messages``, ``resort_plan.cache_hits``,
``balance.lambda``); labels are keyword arguments with string values
(``phase="sort"``, ``solver="fmm"``).  The registry is deterministic:
:meth:`MetricsRegistry.samples` lists every instrument sorted by
``(name, labels)``, so two identical runs export identical metric tables.

Schema (the stable names fed by the subsystems)
-----------------------------------------------
``comm.messages{phase}`` / ``comm.bytes{phase}``
    point-to-point and collective traffic per trace phase (fed by the
    :class:`~repro.obs.spans.ObsRecorder` charge hooks in ``simmpi``).
``comm.payload_nbytes``
    histogram of per-charge payload sizes.
``resort_plan.compiles`` / ``.cache_hits`` / ``.executions`` /
``.fused_columns`` / ``.bytes_moved``
    the plan engine (``core.plan``/``core.handle``).
``balance.lambda`` (gauge) / ``balance.triggers`` / ``balance.rebalances``
    the load-balancing subsystem (``core.balance`` events observed by
    ``md.simulation`` and the FMM repartitioner).
``solver.runs{solver}``
    solver executions per method name (``core.handle``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BOUNDS",
]

#: default histogram bucket upper bounds for payload sizes (bytes)
DEFAULT_BYTE_BOUNDS = (256, 4096, 65536, 1048576, 16777216)

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += int(amount)


class Gauge:
    """Last-written float value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound cumulative histogram with sum and count."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BYTE_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last bucket = +inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create store of named, labeled instruments."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}

    def _get(self, name: str, labels: Dict[str, Any], factory, kind: str):
        key = (str(name), _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        elif type(metric).__name__.lower() != kind:
            raise TypeError(
                f"metric {name!r}{dict(key[1])} already registered as "
                f"{type(metric).__name__}, requested {kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, labels, Counter, "counter")

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, labels, Gauge, "gauge")

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        factory = (lambda: Histogram(bounds)) if bounds is not None else Histogram
        return self._get(name, labels, factory, "histogram")

    def samples(self) -> List[Dict[str, Any]]:
        """Deterministic flat export: one dict per instrument, sorted by
        ``(name, labels)``."""
        out: List[Dict[str, Any]] = []
        for (name, labels) in sorted(self._metrics):
            metric = self._metrics[(name, labels)]
            sample: Dict[str, Any] = {"name": name, "labels": dict(labels)}
            if isinstance(metric, Counter):
                sample["type"] = "counter"
                sample["value"] = metric.value
            elif isinstance(metric, Gauge):
                sample["type"] = "gauge"
                sample["value"] = metric.value
            else:
                sample["type"] = "histogram"
                sample["buckets"] = list(
                    zip(list(metric.bounds) + ["+inf"], metric.bucket_counts)
                )
                sample["count"] = metric.count
                sample["sum"] = metric.sum
            out.append(sample)
        return out

    def value(self, name: str, **labels: Any) -> Any:
        """Convenience read of one counter/gauge value (0/None if absent)."""
        key = (str(name), _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            return 0
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        return metric.count

    def clear(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} instruments)"
