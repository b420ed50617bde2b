"""Prometheus-style metrics registry: exposition format and math."""

from __future__ import annotations

import pytest

from repro.service import MetricsRegistry
from repro.service.metrics import Histogram


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_labels(self, registry):
        c = registry.counter("lf_test_total", "A test counter.")
        c.inc(1.0, shard="0")
        c.inc(2.0, shard="0")
        c.inc(5.0, shard="1")
        assert c.value(shard="0") == 3.0
        assert c.value(shard="1") == 5.0
        assert c.total() == 8.0

    def test_render_includes_help_type_and_cells(self, registry):
        c = registry.counter("lf_test_total", "A test counter.")
        c.inc(3.0, shard="0")
        page = registry.render()
        assert "# HELP lf_test_total A test counter." in page
        assert "# TYPE lf_test_total counter" in page
        assert 'lf_test_total{shard="0"} 3' in page

    def test_same_name_returns_same_family(self, registry):
        a = registry.counter("lf_x_total", "x")
        b = registry.counter("lf_x_total", "x")
        assert a is b


class TestGauge:
    def test_set_overwrites(self, registry):
        g = registry.gauge("lf_depth", "Queue depth.")
        g.set(4.0, shard="0")
        g.set(2.0, shard="0")
        assert g.value(shard="0") == 2.0
        assert "# TYPE lf_depth gauge" in registry.render()


class TestHistogram:
    def test_buckets_are_cumulative_in_render(self, registry):
        h = registry.histogram("lf_lat_seconds", "Latency.",
                               buckets=[0.01, 0.1, 1.0])
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        page = registry.render()
        assert 'lf_lat_seconds_bucket{le="0.01"} 1' in page
        assert 'lf_lat_seconds_bucket{le="0.1"} 2' in page
        assert 'lf_lat_seconds_bucket{le="1"} 3' in page
        assert 'lf_lat_seconds_bucket{le="+Inf"} 4' in page
        assert "lf_lat_seconds_count 4" in page

    def test_sum_tracks_observations(self, registry):
        h = registry.histogram("lf_lat_seconds", "Latency.",
                               buckets=[1.0])
        h.observe(0.25)
        h.observe(0.5)
        assert "lf_lat_seconds_sum 0.75" in registry.render()

    def test_quantile_interpolates(self):
        h = Histogram("h", "h", buckets=[0.1, 0.2, 0.4])
        for _ in range(50):
            h.observe(0.05)
        for _ in range(50):
            h.observe(0.15)
        p50 = h.quantile(0.5)
        assert 0.0 < p50 <= 0.2
        p99 = h.quantile(0.99)
        assert 0.1 < p99 <= 0.2

    def test_quantile_empty_is_nan(self):
        import math
        assert math.isnan(
            Histogram("h", "h", buckets=[1.0]).quantile(0.5))
