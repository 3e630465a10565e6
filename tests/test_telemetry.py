"""Unit tests for the ``repro.telemetry`` subsystem.

Covers the tracer (lanes, ids, nesting, events, error tagging, shard
adoption), the metrics registry (counters, gauges, histograms, merge,
Prometheus rendering), the process-current context, and the exporters
(JSONL spans, Chrome trace, trace-dir bundle, offline summarize).
"""

import json

import pytest

from repro.clock import SimClock
from repro.errors import StoreError
from repro.telemetry import (
    NULL,
    SHARD_LANE,
    SIM_LANE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTelemetry,
    SpanTracer,
    Telemetry,
    activate,
    current,
    deactivate,
    use,
)
from repro.telemetry.export import (
    CHROME_TRACE_FILE,
    METRICS_FILE,
    SPANS_FILE,
    canonical_records,
    chrome_trace_events,
    read_spans_jsonl,
    write_trace_dir,
)
from repro.telemetry.summarize import (
    aggregate_spans,
    render_summary,
    summarize_trace,
)


def make_tracer(start: float = 0.0):
    clock = SimClock(start)
    return SpanTracer(clock.now), clock


class TestSpanTracer:
    def test_nesting_and_parent_ids(self):
        tracer, clock = make_tracer()
        with tracer.span("outer"):
            clock.advance(5.0)
            with tracer.span("inner"):
                clock.advance(2.0)
        outer, inner = tracer.spans
        assert outer.span_id == "sim:1"
        assert outer.parent_id is None
        assert inner.span_id == "sim:2"
        assert inner.parent_id == "sim:1"
        assert outer.sim_start == 0.0
        assert outer.sim_end == 7.0
        assert inner.sim_start == 5.0
        assert inner.sim_end == 7.0

    def test_per_lane_id_counters(self):
        tracer, _ = make_tracer()
        with tracer.span("operational", lane=SHARD_LANE):
            pass
        with tracer.span("canonical"):
            pass
        shard, sim = tracer.spans
        # The shard span must not consume a canonical id.
        assert shard.span_id == "shard:1"
        assert sim.span_id == "sim:1"

    def test_sim_parent_skips_shard_spans(self):
        tracer, _ = make_tracer()
        with tracer.span("stage"):
            with tracer.span("drive", lane=SHARD_LANE):
                with tracer.span("batch"):
                    pass
        stage, drive, batch = tracer.spans
        assert drive.parent_id == stage.span_id
        # The canonical child's parent is the canonical ancestor, not the
        # operational span in between (whose id varies per worker count).
        assert batch.parent_id == stage.span_id
        assert batch.lane == SIM_LANE

    def test_unknown_lane_rejected(self):
        tracer, _ = make_tracer()
        with pytest.raises(ValueError):
            tracer.begin("x", lane="wat")

    def test_sim_end_never_precedes_start(self):
        tracer, clock = make_tracer(100.0)
        span = tracer.begin("seeky")
        clock.seek(40.0)  # the farm seeks backwards between sessions
        tracer.finish(span)
        assert span.sim_end == span.sim_start == 100.0

    def test_explicit_sim_start(self):
        tracer, clock = make_tracer(50.0)
        with tracer.span("planned", sim_start=10.0):
            clock.advance(1.0)
        assert tracer.spans[0].sim_start == 10.0
        assert tracer.spans[0].sim_end == 51.0

    def test_complete_span_is_retroactive(self):
        tracer, _ = make_tracer()
        span = tracer.complete_span("batch", sim_start=3.0, sim_end=9.0)
        assert span.sim_start == 3.0
        assert span.sim_end == 9.0
        assert span.wall_start == span.wall_end
        assert tracer.current is None  # never pushed on the stack

    def test_event_attaches_to_innermost_open_span(self):
        tracer, clock = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                clock.advance(4.0)
                assert tracer.event("tick", {"n": 1}) is True
        outer, inner = tracer.spans
        assert outer.events == []
        assert inner.events == [
            {"name": "tick", "sim_time": 4.0, "attrs": {"n": 1}}
        ]

    def test_event_without_open_span_is_dropped(self):
        tracer, _ = make_tracer()
        assert tracer.event("orphan") is False
        assert tracer.records() == []

    def test_error_tagging_and_reraise(self):
        tracer, _ = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        span = tracer.spans[0]
        assert span.status == "error"
        assert span.error == "RuntimeError: boom"
        record = span.to_record()
        assert record["error"] == "RuntimeError: boom"
        assert tracer.current is None  # stack unwound

    def test_records_wall_segregation(self):
        tracer, _ = make_tracer()
        with tracer.span("x"):
            pass
        with_wall = tracer.records(include_wall=True)[0]
        without = tracer.records(include_wall=False)[0]
        assert "wall" in with_wall
        assert set(with_wall["wall"]) == {"start", "end", "dur"}
        assert "wall" not in without
        assert without["sim"] == with_wall["sim"]

    def test_adopt_shard_records(self):
        worker, wclock = make_tracer()
        with worker.span("farm.domain", lane=SHARD_LANE):
            with worker.span("farm.domain", lane=SHARD_LANE):
                wclock.advance(1.0)
        parent, _ = make_tracer()
        parent.adopt_shard_records(worker.records(include_wall=True), shard=3)
        outer, inner = parent.adopted
        assert outer["span_id"] == "s3:shard:1"
        assert outer["parent_id"] is None
        assert inner["parent_id"] == "s3:shard:1"
        assert outer["host"] == {"shard": 3}
        assert outer["lane"] == SHARD_LANE
        # Adopted records drop wall/host in the deterministic view.
        trimmed = parent.records(include_wall=False)
        assert all("wall" not in r and "host" not in r for r in trimmed)


class TestMetrics:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_bucketing(self):
        histogram = Histogram("h", boundaries=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 106.5
        # <=1, <=10, overflow
        assert histogram.bucket_counts == [2, 1, 1]

    def test_registry_lazy_and_conflicts(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", (5.0,))

    def test_snapshot_merge(self):
        left = MetricsRegistry()
        left.counter("hits").inc(2)
        left.gauge("level").set(1.0)
        left.histogram("sizes", (10.0,)).observe(3.0)
        right = MetricsRegistry()
        right.counter("hits").inc(3)
        right.counter("extra").inc(1)
        right.gauge("level").set(7.0)
        right.histogram("sizes", (10.0,)).observe(50.0)
        left.merge(right.snapshot())
        assert left.counter("hits").value == 5
        assert left.counter("extra").value == 1
        assert left.gauge("level").value == 7.0
        sizes = left.histogram("sizes", (10.0,))
        assert sizes.count == 2
        assert sizes.bucket_counts == [1, 1]
        assert sizes.total == 53.0

    def test_snapshot_roundtrips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.histogram("sizes", (4.0,)).observe(1.0)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        other = MetricsRegistry()
        other.merge(snapshot)
        assert other.snapshot() == registry.snapshot()

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("crawl.sessions").inc(3)
        registry.gauge("faults.injected").set(2)
        registry.histogram("store.record_bytes", (10.0, 100.0)).observe(42.0)
        text = registry.to_prometheus()
        assert "# TYPE seacma_crawl_sessions_total counter" in text
        assert "seacma_crawl_sessions_total 3" in text
        assert "seacma_faults_injected 2" in text
        assert 'seacma_store_record_bytes_bucket{le="10"} 0' in text
        assert 'seacma_store_record_bytes_bucket{le="100"} 1' in text
        assert 'seacma_store_record_bytes_bucket{le="+Inf"} 1' in text
        assert "seacma_store_record_bytes_sum 42" in text
        assert "seacma_store_record_bytes_count 1" in text
        assert text.endswith("\n")


class TestContext:
    def test_default_is_null(self):
        assert current() is NULL
        assert current().enabled is False

    def test_null_telemetry_is_inert(self):
        null = NullTelemetry()
        with null.span("anything", {"k": 1}) as span:
            assert span is None
        assert null.event("e") is False
        null.inc("c")
        null.set_gauge("g", 1.0)
        null.observe("h", 2.0)
        null.complete_span("s", 0.0, 1.0)
        null.record_fault_stats(None)

    def test_activate_deactivate(self):
        telemetry = Telemetry(SimClock())
        try:
            assert activate(telemetry) is telemetry
            assert current() is telemetry
        finally:
            deactivate()
        assert current() is NULL

    def test_use_restores_previous(self):
        first = Telemetry(SimClock())
        second = Telemetry(SimClock())
        with use(first):
            with use(second):
                assert current() is second
            assert current() is first
        assert current() is NULL

    def test_record_fault_stats_gauges(self):
        from repro.faults.stats import FaultStats

        stats = FaultStats()
        stats.injected["transient"] = 3
        stats.retries = 2
        telemetry = Telemetry(SimClock())
        telemetry.record_fault_stats(stats)
        telemetry.record_fault_stats(stats)  # idempotent re-record
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["gauges"]["faults.injected.transient"] == 3
        assert snapshot["gauges"]["faults.retries"] == 2


def traced_telemetry() -> Telemetry:
    clock = SimClock()
    telemetry = Telemetry(clock)
    with telemetry.span("stage.crawl", {"publishers": 2}):
        clock.advance(10.0)
        telemetry.complete_span(
            "crawl.domain", sim_start=0.0, sim_end=5.0, attrs={"domain": "a.com"}
        )
        telemetry.event("fault.backoff", {"attempt": 0})
    with telemetry.span("farm.domain", lane=SHARD_LANE):
        clock.advance(1.0)
    telemetry.metrics.counter("crawl.sessions").inc(4)
    return telemetry


class TestExport:
    def test_trace_dir_bundle(self, tmp_path):
        telemetry = traced_telemetry()
        files = write_trace_dir(tmp_path, telemetry)
        assert set(files) == {"spans", "chrome_trace", "metrics"}
        assert (tmp_path / SPANS_FILE).exists()
        assert (tmp_path / CHROME_TRACE_FILE).exists()
        assert (tmp_path / METRICS_FILE).exists()
        records = read_spans_jsonl(tmp_path / SPANS_FILE)
        assert len(records) == len(telemetry.tracer.spans)
        assert records[0]["name"] == "stage.crawl"
        assert "wall" in records[0]

    def test_canonical_view_recoverable_from_export(self, tmp_path):
        telemetry = traced_telemetry()
        write_trace_dir(tmp_path, telemetry)
        exported = read_spans_jsonl(tmp_path / SPANS_FILE)
        # Sim-lane spans minus their wall/host fields are the canonical view.
        assert [
            {key: value for key, value in record.items() if key not in ("wall", "host")}
            for record in exported
            if record["lane"] == SIM_LANE
        ] == canonical_records(telemetry)
        # The canonical view holds only sim-lane spans, wall-free.
        for record in canonical_records(telemetry):
            assert record["lane"] == SIM_LANE
            assert "wall" not in record

    def test_chrome_trace_schema(self, tmp_path):
        telemetry = traced_telemetry()
        events = chrome_trace_events(telemetry)
        metadata = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metadata} == {
            "pipeline (sim clock)",
            "crawl execution (shards)",
        }
        complete = [e for e in events if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        crawl = by_name["stage.crawl"]
        assert crawl["pid"] == 1 and crawl["tid"] == 1
        assert crawl["ts"] == 0.0
        assert crawl["dur"] == 10.0 * 1e6  # sim microseconds
        assert by_name["farm.domain"]["pid"] == 2
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "fault.backoff"
        write_trace_dir(tmp_path, telemetry)
        payload = json.loads((tmp_path / CHROME_TRACE_FILE).read_text())
        assert payload["traceEvents"]
        assert payload["otherData"]["clock"] == "sim"

    def test_adopted_worker_spans_render_per_shard_rows(self):
        worker = Telemetry(SimClock())
        with worker.span("farm.domain", lane=SHARD_LANE):
            pass
        parent = traced_telemetry()
        parent.tracer.adopt_shard_records(
            worker.tracer.records(include_wall=True), shard=1
        )
        events = chrome_trace_events(parent)
        rows = {
            (e["pid"], e["tid"]) for e in events if e["ph"] == "X"
        }
        assert (2, 1) in rows  # in-process shard lane
        assert (2, 3) in rows  # worker shard 1 -> tid 2 + 1


class TestSummarize:
    def test_missing_trace_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="no trace at"):
            summarize_trace(tmp_path / "nope")

    def test_aggregate_and_render(self, tmp_path):
        telemetry = traced_telemetry()
        write_trace_dir(tmp_path, telemetry)
        summary = summarize_trace(tmp_path)
        assert summary.spans == 3
        assert summary.errors == 0
        assert summary.has_metrics
        names = {(agg.name, agg.lane) for agg in summary.aggregates}
        assert ("stage.crawl", SIM_LANE) in names
        assert ("farm.domain", SHARD_LANE) in names
        crawl = next(a for a in summary.aggregates if a.name == "stage.crawl")
        assert crawl.count == 1
        assert crawl.sim_seconds == 10.0
        assert crawl.events == 1
        text = render_summary(summary)
        assert "3 spans" in text
        assert "stage.crawl" in text
        assert "SPAN" in text and "LANE" in text

    def test_aggregate_spans_orders_by_sim_weight(self):
        records = [
            {"name": "light", "lane": "sim", "sim": {"start": 0, "end": 1},
             "events": [], "status": "ok"},
            {"name": "heavy", "lane": "sim", "sim": {"start": 0, "end": 50},
             "events": [], "status": "error"},
        ]
        aggregates = aggregate_spans(records)
        assert [a.name for a in aggregates] == ["heavy", "light"]
        assert aggregates[0].errors == 1
