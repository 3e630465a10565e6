"""Per-layer metrics: which calls are wrapped and how they are reported.

:class:`LayerTracer` wraps the public calls of each layer at the name
their callers look up; :func:`collect` turns the spans and the program's own
counters into the per-layer metrics of :data:`PER_LAYER`.  A layer that
does not run in a workload reads 0 there (``crawl`` never milks or
serves the feed, and ``crawl-sharded`` traces its parent process only:
its forked shard workers run untraced, so the session layers read 0 on
it).
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from pathlib import Path

from spans import Tracer

#: Every per-layer metric, in output order, with its unit.
PER_LAYER: dict[str, str] = {
    "import.repro_s": "s",
    "world.build_s": "s",
    "world.page.derive_calls": "count",
    "world.page.derive_self_s": "s",
    "world.page_cache.hit_ratio": "ratio",
    "world.page_cache.evictions": "count",
    "seeds.reverse_s": "s",
    "farm.sessions": "count",
    "farm.run_entry.self_s": "s",
    "farm.resolve.self_s": "s",
    "imaging.dedup_ratio": "ratio",
    "browser.visit.self_s": "s",
    "browser.click.self_s": "s",
    "js.run.calls": "count",
    "js.run.self_s": "s",
    "net.fetch.calls": "count",
    "net.fetch.self_s": "s",
    "net.dns.self_s": "s",
    "imaging.dhash.frames": "count",
    "imaging.dhash.self_s": "s",
    "store.append.calls": "count",
    "store.append.self_s": "s",
    "store.intent.self_s": "s",
    "store.bytes": "bytes",
    "cluster.ingest.self_s": "s",
    "cluster.finalize_s": "s",
    "attribution.ingest.self_s": "s",
    "attribution.expand_s": "s",
    "milking.run.self_s": "s",
    "gsb.lookup.calls": "count",
    "gsb.lookup.self_s": "s",
    "vt.self_s": "s",
    "faults.retries": "count",
    "faults.breaker_trips": "count",
    "faults.failed_fetches": "count",
    "faults.sessions_lost": "count",
    "feed.publish.self_s": "s",
    "feed.snapshots": "count",
    "feed.snapshot.build_s": "s",
    "parallel.wait_s": "s",
    "parallel.segment_bytes": "bytes",
    "parallel.worker_peak_rss_mb": "MB",
    "feed.payload_store.build_s": "s",
    "feed.server.p50_ms.not_modified": "ms",
    "feed.server.p99_ms.not_modified": "ms",
    "feed.server.p50_ms.delta": "ms",
    "feed.server.p99_ms.delta": "ms",
    "feed.server.p50_ms.full": "ms",
    "feed.server.p99_ms.full": "ms",
    "feed.wait_ms": "ms",
    "feed.bytes_per_req": "bytes",
    "feed.p50_ms.low": "ms",
    "feed.p99_ms.low": "ms",
    "feed.p50_ms.mid": "ms",
    "feed.p99_ms.mid": "ms",
    "feed.p50_ms.high": "ms",
    "feed.p99_ms.high": "ms",
    "feed.p50_ms.r60k": "ms",
    "feed.p99_ms.r60k": "ms",
    "feed.p50_ms.r90k": "ms",
    "feed.p99_ms.r90k": "ms",
    "feed.max_rps": "1/s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.cpu_s": "s",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_pct": "%",
}

#: (target, span name) pairs wrapped in every traced pipeline child.
#: Targets are ``module:attr`` or ``module:Class.method``, each at the
#: name the calling code looks up.
WRAPS = (
    ("repro.ecosystem.publisher:derive_publisher_page", "world.page.derive"),
    ("repro.core.pipeline:reverse_to_publishers", "seeds.reverse"),
    ("repro.core.sessionbatch:SessionKernel.run_entry", "farm.run_entry"),
    ("repro.core.sessionbatch:DeferredRecorder.resolve", "farm.resolve"),
    ("repro.browser.browser:Browser.visit", "browser.visit"),
    ("repro.browser.browser:Browser.click", "browser.click"),
    ("repro.js.engine:JsEngine.run", "js.run"),
    ("repro.net.network:Internet.fetch", "net.fetch"),
    ("repro.net.dns:DnsRegistry.resolve", "net.dns"),
    ("repro.core.sessionbatch:DeferredRecorder.screenshot_hash", "imaging.capture"),
    ("repro.core.crawler:dhash128", "imaging.dhash.scalar"),
    ("repro.core.milking:dhash128", "imaging.dhash.scalar"),
    ("repro.core.sessionbatch:dhash128_pure", "imaging.dhash.batched"),
    ("repro.store.jsonl:JsonlStore.append", "store.append"),
    ("repro.store.jsonl:JsonlStore.begin_intent", "store.intent"),
    ("repro.store.jsonl:JsonlStore.commit_intent", "store.intent"),
    ("repro.core.discovery:IncrementalDiscovery.ingest", "cluster.ingest"),
    ("repro.core.discovery:IncrementalDiscovery.finalize", "cluster.finalize"),
    ("repro.core.attribution:IncrementalAttribution.ingest", "attribution.ingest"),
    ("repro.core.pipeline:discover_new_networks", "attribution.expand"),
    ("repro.core.pipeline:expand_publisher_list", "attribution.expand"),
    ("repro.core.milking:MilkingTracker.run", "milking.run"),
    ("repro.ecosystem.gsb:GoogleSafeBrowsing.lookup", "gsb.lookup"),
    ("repro.ecosystem.virustotal:VirusTotal.query", "vt"),
    ("repro.ecosystem.virustotal:VirusTotal.submit", "vt"),
    ("repro.ecosystem.virustotal:VirusTotal.rescan", "vt"),
    ("repro.feed.publisher:FeedPublisher.domain_discovered", "feed.publish"),
    ("repro.feed.publisher:FeedPublisher.domain_seen", "feed.publish"),
    ("repro.feed.publisher:FeedPublisher.round_complete", "feed.publish"),
    ("repro.feed.publisher:FeedPublisher.milking_finished", "feed.publish"),
    ("repro.feed.snapshot:FeedSnapshot.build", "feed.snapshot.build"),
)


class _TimeProxy:
    """``time`` for the sharded executor, with ``sleep`` as a wait span."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def sleep(self, seconds: float) -> None:
        self._tracer.call("parallel.wait", time.sleep, (seconds,), {})

    def __getattr__(self, name: str):
        return getattr(time, name)


class _ShutilProxy:
    """``shutil`` for the sharded executor: sizes segments before removal."""

    def __init__(self) -> None:
        self.segment_bytes = 0

    def rmtree(self, path, *args, **kwargs):
        root = Path(path)
        if root.is_dir():
            self.segment_bytes += sum(
                entry.stat().st_size for entry in root.rglob("*") if entry.is_file()
            )
        return shutil.rmtree(path, *args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(shutil, name)


class LayerTracer(Tracer):
    """The tracer of one pipeline child, with every layer wrapped."""

    def __init__(self, workload: str) -> None:
        super().__init__()
        for target, name in WRAPS:
            self.wrap(target, name)
        self.wrap(
            "repro.core.sessionbatch:dhash128_many",
            "imaging.dhash.batched",
            items=lambda images, *rest, **kw: len(images),
        )
        # Shard workers are forked from the traced parent: they run untraced.
        os.register_at_fork(after_in_child=self.unwrap_all)
        self.segments: _ShutilProxy | None = None
        if workload == "crawl-sharded":
            self.segments = _ShutilProxy()
            self.replace("repro.parallel.executor:time", _TimeProxy(self))
            self.replace("repro.parallel.executor:shutil", self.segments)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def collect(tracer: LayerTracer, world, result, store_dir: Path, out: dict) -> dict:
    """Per-layer metrics of one traced pipeline child."""
    cache = world.publisher_directory.stats
    hashes = ("imaging.dhash.scalar", "imaging.dhash.batched")
    faults = result.fault_stats.as_dict() if result.fault_stats is not None else {}
    segments = tracer.segments
    metrics = {
        "import.repro_s": out["import_s"],
        "world.build_s": out["build_s"],
        "world.page.derive_calls": tracer.calls("world.page.derive"),
        "world.page.derive_self_s": tracer.self_s("world.page.derive"),
        "world.page_cache.hit_ratio": _ratio(
            cache.cache_hits, cache.cache_hits + cache.cache_misses
        ),
        "world.page_cache.evictions": cache.cache_evictions,
        "seeds.reverse_s": tracer.total_s("seeds.reverse"),
        "farm.sessions": result.crawl.sessions,
        "farm.run_entry.self_s": tracer.self_s("farm.run_entry"),
        "farm.resolve.self_s": tracer.self_s("farm.resolve"),
        # Share of the crawl's captured frames whose hash was reused.
        "imaging.dedup_ratio": _ratio(
            tracer.calls("imaging.capture") - tracer.items("imaging.dhash.batched"),
            tracer.calls("imaging.capture"),
        ),
        "browser.visit.self_s": tracer.self_s("browser.visit"),
        "browser.click.self_s": tracer.self_s("browser.click"),
        "js.run.calls": tracer.calls("js.run"),
        "js.run.self_s": tracer.self_s("js.run"),
        "net.fetch.calls": tracer.calls("net.fetch"),
        "net.fetch.self_s": tracer.self_s("net.fetch"),
        "net.dns.self_s": tracer.self_s("net.dns"),
        "imaging.dhash.frames": sum(tracer.items(name) for name in hashes),
        "imaging.dhash.self_s": sum(tracer.self_s(name) for name in hashes),
        "store.append.calls": tracer.calls("store.append"),
        "store.append.self_s": tracer.self_s("store.append"),
        "store.intent.self_s": tracer.self_s("store.intent"),
        "store.bytes": sum(p.stat().st_size for p in store_dir.glob("*.jsonl")),
        "cluster.ingest.self_s": tracer.self_s("cluster.ingest"),
        "cluster.finalize_s": tracer.total_s("cluster.finalize"),
        "attribution.ingest.self_s": tracer.self_s("attribution.ingest"),
        "attribution.expand_s": tracer.total_s("attribution.expand"),
        "milking.run.self_s": tracer.self_s("milking.run"),
        "gsb.lookup.calls": tracer.calls("gsb.lookup"),
        "gsb.lookup.self_s": tracer.self_s("gsb.lookup"),
        "vt.self_s": tracer.self_s("vt"),
        "faults.retries": faults.get("retries", 0),
        "faults.breaker_trips": faults.get("breaker_trips", 0),
        "faults.failed_fetches": faults.get("failed_fetches", 0),
        "faults.sessions_lost": faults.get("sessions_lost", 0),
        "feed.publish.self_s": tracer.self_s("feed.publish"),
        "feed.snapshots": len(result.feed),
        "feed.snapshot.build_s": tracer.total_s("feed.snapshot.build"),
        "parallel.wait_s": tracer.total_s("parallel.wait"),
        "parallel.segment_bytes": segments.segment_bytes if segments else 0,
        "parallel.worker_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if segments
            else 0.0
        ),
        "trace.traced_run_s": out["run_s"],
    }
    metrics["trace.unwrapped"] = list(tracer.missing)
    return metrics
