"""MetricsRegistry unit tests: schema, determinism."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError, match="increase"):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge()
        assert g.value is None
        g.set(2.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_histogram_buckets(self):
        h = Histogram(bounds=(10, 100))
        for v in (5, 10, 50, 1000):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == 1065.0

    def test_histogram_bad_bounds(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram(bounds=(100, 10))


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a", phase="x") is reg.counter("a", phase="x")
        assert reg.counter("a", phase="x") is not reg.counter("a", phase="y")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_samples_deterministic_order(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a", phase="q").inc(2)
        reg.counter("a", phase="b").inc(1)
        reg.gauge("m").set(0.5)
        names = [(s["name"], tuple(sorted(s["labels"].items()))) for s in reg.samples()]
        assert names == sorted(names)

    def test_value_reads(self):
        reg = MetricsRegistry()
        assert reg.value("missing") == 0
        reg.counter("c").inc(3)
        reg.gauge("g").set(7.0)
        reg.histogram("h").observe(1.0)
        assert reg.value("c") == 3
        assert reg.value("g") == 7.0
        assert reg.value("h") == 1  # histograms read as observation count

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.clear()
        assert len(reg) == 0
