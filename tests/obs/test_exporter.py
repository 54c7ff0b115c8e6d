"""Prometheus text renderer."""

from repro.obs.exporter import prometheus_name, render_prometheus
from repro.obs.metrics import MetricsRegistry


def make_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro.test.hits").inc(5)
    reg.gauge("repro.test.depth").set(2.5)
    h = reg.histogram("repro.test.lat_ms", boundaries=(1.0, 10.0))
    for v in (0.5, 3.0, 3.0, 40.0):
        h.observe(v)
    s = reg.histogram("repro.test.sizes")
    for v in (1.0, 2.0, 9.0):
        s.observe(v)
    return reg


def test_prometheus_name_sanitizes():
    assert prometheus_name("repro.serve.latency_ms") == "repro_serve_latency_ms"
    assert prometheus_name("a-b.c") == "a_b_c"


def test_render_prometheus_counter_gauge_histogram():
    text = render_prometheus(make_registry())
    lines = text.splitlines()
    assert "# TYPE repro_test_hits counter" in lines
    assert "repro_test_hits 5" in lines
    assert "# TYPE repro_test_depth gauge" in lines
    assert "repro_test_depth 2.5" in lines
    # fixed-boundary histogram: cumulative le buckets + sum/count
    assert "# TYPE repro_test_lat_ms histogram" in lines
    assert 'repro_test_lat_ms_bucket{le="1"} 1' in lines
    assert 'repro_test_lat_ms_bucket{le="10"} 3' in lines
    assert 'repro_test_lat_ms_bucket{le="+Inf"} 4' in lines
    assert "repro_test_lat_ms_count 4" in lines
    # ... plus pre-estimated quantile companion gauges (the serving
    # frontend's scrape surface reads p50/p99 without PromQL)
    assert "# TYPE repro_test_lat_ms_p50 gauge" in lines
    assert "repro_test_lat_ms_p50 3" in lines
    assert any(line.startswith("repro_test_lat_ms_p99 ") for line in lines)
    # summary-only histogram: quantile series
    assert "# TYPE repro_test_sizes summary" in lines
    assert 'repro_test_sizes{quantile="0.5"} 2' in lines
    assert "repro_test_sizes_count 3" in lines


def test_render_prometheus_empty_registry():
    assert render_prometheus(MetricsRegistry()) == ""
