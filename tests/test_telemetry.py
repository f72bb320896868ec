"""Unit tests of :mod:`repro.telemetry`: the registry, the tracer, the
exporters and the disabled-path cost contract."""

import io
import json

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    Span,
    Telemetry,
    Tracer,
    render_prometheus,
    render_snapshot,
    telemetry_enabled,
)
from repro.telemetry.metrics import (
    Histogram,
    bucket_quantile,
    histogram_quantiles,
    quantile_label,
)


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "Hits.").inc()
        reg.counter("repro_hits_total").inc(2)
        assert reg.value("repro_hits_total") == 3

    def test_labelled_children_are_distinct(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_pid_ops_total", "Ops.", labels=("pid",))
        fam.labels(pid=1).inc()
        fam.labels(pid=2).inc(5)
        assert reg.value("repro_pid_ops_total", pid=1) == 1
        assert reg.value("repro_pid_ops_total", pid=2) == 5

    def test_redeclaring_with_other_type_fails(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total")

    def test_redeclaring_with_other_labels_fails(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", labels=("pid",))
        with pytest.raises(ValueError):
            reg.counter("repro_x_total", labels=("disk",))

    def test_bad_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("not a metric name")

    def test_collectors_run_on_collect_only(self):
        reg = MetricsRegistry()
        calls = []
        reg.register_collector(lambda r: calls.append(1) or r.gauge("repro_g").set(7))
        assert calls == []
        reg.collect()
        assert calls == [1]
        assert reg.value("repro_g") == 7

    def test_gauge_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_depth")
        g.unlabelled.inc(3)
        g.unlabelled.dec()
        assert reg.value("repro_depth") == 2


class TestHistogram:
    def test_overflow_lands_in_inf_slot(self):
        h = Histogram((0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(99.0)  # beyond every finite bound
        assert len(h.counts) == 3  # two bounds + the +Inf slot
        assert h.counts == [1, 1, 1]
        cum = h.cumulative()
        assert cum[-1] == (float("inf"), 3)
        assert h.sum == pytest.approx(99.55)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_default_latency_buckets_are_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestBucketQuantile:
    """The Prometheus-style estimator shared by ``repro-accfc metrics``
    and the load driver's latency report, on synthetic bucket layouts."""

    def test_interpolates_within_target_bucket(self):
        # cumulative counts: 50 samples in (0,1], 40 in (2,4], 10 in (8,+Inf]
        layout = [(1.0, 50), (2.0, 50), (4.0, 90), (8.0, 90), (float("inf"), 100)]
        # target rank 50 lands exactly on the first bucket's upper edge
        assert bucket_quantile(layout, 0.5) == pytest.approx(1.0)
        # rank 75 sits 25/40 of the way through the (2,4] bucket
        assert bucket_quantile(layout, 0.75) == pytest.approx(2.0 + 2.0 * 25 / 40)

    def test_first_bucket_interpolates_from_zero(self):
        layout = [(2.0, 100), (float("inf"), 100)]
        assert bucket_quantile(layout, 0.5) == pytest.approx(1.0)

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        layout = [(1.0, 10), (float("inf"), 100)]
        assert bucket_quantile(layout, 0.99) == pytest.approx(1.0)

    def test_extremes_and_empty(self):
        layout = [(1.0, 4), (2.0, 8), (float("inf"), 8)]
        assert bucket_quantile(layout, 0.0) == pytest.approx(0.0)
        assert bucket_quantile(layout, 1.0) == pytest.approx(2.0)
        assert bucket_quantile([], 0.5) is None
        assert bucket_quantile([(1.0, 0), (float("inf"), 0)], 0.5) is None

    def test_q_validated(self):
        with pytest.raises(ValueError):
            bucket_quantile([(1.0, 1)], -0.1)
        with pytest.raises(ValueError):
            bucket_quantile([(1.0, 1)], 1.1)

    def test_accepts_histogram_and_snapshot_shapes(self):
        h = Histogram((1.0, 2.0, 4.0))
        for value in (0.5,) * 5 + (3.0,) * 5:
            h.observe(value)
        median = bucket_quantile(h, 0.5)
        assert median == pytest.approx(1.0)
        # the same layout as snapshot-style dicts with a "+Inf" string
        snapshot = [
            {"le": 1.0, "count": 5},
            {"le": 2.0, "count": 5},
            {"le": 4.0, "count": 10},
            {"le": "+Inf", "count": 10},
        ]
        assert bucket_quantile(snapshot, 0.5) == pytest.approx(median)
        assert h.quantile(0.5) == pytest.approx(median)

    def test_histogram_quantiles_labels(self):
        h = Histogram((1.0, 2.0))
        h.observe(0.5)
        qs = histogram_quantiles(h)
        assert set(qs) == {"p50", "p99"}
        assert quantile_label(0.5) == "p50"
        assert quantile_label(0.999) == "p99.9"

    def test_render_snapshot_carries_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", "t", buckets=(0.1, 1.0))
        h.labels().observe(0.05)
        snap = render_snapshot(reg)
        sample = snap["metrics"]["repro_test_seconds"]["samples"][0]
        assert "quantiles" in sample
        assert sample["quantiles"]["p50"] is not None


class TestPrometheusExposition:
    def test_counter_and_histogram_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "Cache hits.").inc(4)
        fam = reg.histogram("repro_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        fam.observe(0.05)
        fam.observe(50.0)
        text = render_prometheus(reg)
        assert "# HELP repro_hits_total Cache hits." in text
        assert "# TYPE repro_hits_total counter" in text
        assert "repro_hits_total 4" in text
        assert '_bucket{le="0.1"} 1' in text
        assert '_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_count 2" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g", labels=("path",)).labels(path='a"b\\c\n').set(1)
        text = render_prometheus(reg)
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "Hits.").inc()
        snap = render_snapshot(reg, Tracer())
        assert snap["metrics"]["repro_hits_total"]["type"] == "counter"
        assert snap["tracing"]["finished"] == 0


class TestTracer:
    def test_trace_id_propagates_to_children(self):
        tr = Tracer()
        root = tr.begin("server.request", trace_id="7:42")
        child = tr.begin("buf.access")
        assert child.trace_id == "7:42"
        assert child.parent_id == root.span_id
        tr.finish(child)
        tr.finish(root)
        assert [r["name"] for r in tr.trace("7:42")] == ["buf.access", "server.request"]

    def test_annotate_without_span_is_noop(self):
        tr = Tracer()
        tr.annotate("fault.disk", kind="error")  # must not raise
        assert tr.records() == []

    def test_ring_buffer_bounds_and_drop_counter(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.finish(tr.begin(f"op{i}"))
        assert len(tr.records()) == 4
        assert tr.dropped == 6
        assert tr.stats()["retained"] == 4
        # Oldest dropped first: the survivors are the last four.
        assert [r["name"] for r in tr.records()] == ["op6", "op7", "op8", "op9"]

    def test_jsonl_sink_gets_one_object_per_line(self):
        sink = io.StringIO()
        tr = Tracer(sink=sink)
        span = tr.begin("kernel.read", pid=3)
        span.event("fault.disk", kind="error")
        tr.finish(span, ok=False)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "kernel.read"
        assert record["attrs"]["ok"] is False
        assert record["events"][0]["name"] == "fault.disk"

    def test_finish_unwinds_surprised_stack(self):
        tr = Tracer()
        outer = tr.begin("outer")
        tr.begin("inner")  # never finished — e.g. an exception path
        tr.finish(outer)
        assert tr.current is None


class TestDisabledFastPath:
    def test_disabled_system_allocates_no_spans(self, monkeypatch):
        """The no-telemetry hot path must not construct Span objects."""
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        from repro.kernel.system import MachineConfig, System
        from repro.workloads.readn import ReadN, ReadNBehavior

        system = System(MachineConfig(cache_mb=0.25))
        assert system.telemetry is None
        ReadN(n=8, file_blocks=24, repeats=2, behavior=ReadNBehavior.SMART).spawn(system)
        before = Span.allocations
        system.run()
        assert Span.allocations == before

    def test_metrics_without_tracer_allocate_no_spans(self):
        tel = Telemetry()  # registry only, no tracer
        before = Span.allocations
        assert tel.span("buf.access") is None
        tel.end(None)
        tel.annotate("fault.disk")
        assert Span.allocations == before

    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert not telemetry_enabled()
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert not telemetry_enabled()
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert telemetry_enabled()


class TestSystemIntegration:
    def test_enabled_system_exports_cache_and_disk_metrics(self):
        from repro.kernel.system import MachineConfig, System
        from repro.workloads.readn import ReadN, ReadNBehavior

        system = System(MachineConfig(cache_mb=0.25, telemetry=True))
        assert system.telemetry is not None
        ReadN(n=8, file_blocks=64, repeats=2, behavior=ReadNBehavior.SMART).spawn(system)
        result = system.run()
        reg = system.telemetry.registry
        assert reg.value("repro_cache_accesses_total", refresh=True) == system.cache.stats.accesses
        assert reg.value("repro_cache_misses_total") == system.cache.stats.misses
        assert reg.value("repro_disk_reads_total", disk="RZ56") > 0
        # The per-disk service-time histogram saw every transfer.
        text = system.telemetry.prometheus()
        assert 'repro_disk_service_seconds_bucket{disk="RZ56",le="+Inf"}' in text
        assert result.telemetry is not None
        assert "repro_cache_accesses_total" in result.telemetry["metrics"]

    def test_session_counters_view_round_trips(self):
        from repro.server.stats import SessionCounters, session_collector

        reg = MetricsRegistry()
        counters = SessionCounters()
        reg.register_collector(session_collector({7: counters}))
        counters.inc("accesses")
        counters.inc("hits")
        counters.accesses += 1  # the engine's form
        assert counters.accesses == 2
        assert counters.hit_ratio == 0.5
        assert reg.value("repro_session_accesses_total", refresh=True, pid=7) == 2
        d = counters.as_dict()
        assert d["accesses"] == 2 and d["hits"] == 1 and d["block_ios"] == 0
