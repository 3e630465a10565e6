"""Streaming pipeline: wall-clock and memory footprint.

Runs a mid-size world through ``SeacmaPipeline.run_streaming()`` and
reports wall-clock time and peak Python-heap usage (tracemalloc),
checking that the run still produces the campaigns and milked domains
recorded in ``results/BENCH_streaming.json``.

That file is the committed record of the last batch-vs-streaming
comparison (streaming at 0.979x the batch wall time with a smaller peak
heap).  The batch body it timed is gone — ``run()`` is now the streaming
run — so this bench no longer rewrites it; the current figures go to
``results/streaming_pipeline.txt``.
"""

import json
import pathlib
import resource
import time
import tracemalloc

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.core.milking import MilkingConfig
from repro.store import MemoryStore

STREAM_BENCH_CONFIG = WorldConfig(
    seed=9,
    n_publishers=150,
    n_campaigns=10,
    crawl_window_days=1.0,
    max_code_domains=30,
    n_advertisers=40,
)

STREAM_MILKING = MilkingConfig(duration_days=2.0, post_lookup_days=2.0)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def measure() -> dict:
    """One full streaming pipeline run, with its own metrics."""
    world = build_world(STREAM_BENCH_CONFIG)
    pipeline = SeacmaPipeline(world, milking_config=STREAM_MILKING)
    tracemalloc.start()
    started = time.perf_counter()
    result = pipeline.run_streaming(store=MemoryStore())
    wall_seconds = time.perf_counter() - started
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "wall_seconds": round(wall_seconds, 3),
        "peak_heap_mb": round(peak_bytes / 2**20, 2),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "interactions": len(result.crawl.interactions),
        "se_campaigns": len(result.discovery.seacma_campaigns),
        "milked_domains": len(result.milking.domains),
    }


def test_streaming_footprint(benchmark, save_artifact):
    recorded = json.loads((RESULTS_DIR / "BENCH_streaming.json").read_text())
    streaming = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Same science as the recorded comparison.
    for key in ("interactions", "se_campaigns", "milked_domains"):
        assert streaming[key] == recorded["streaming"][key], key
    save_artifact(
        "streaming_pipeline",
        f"streaming: {streaming['wall_seconds']:.2f}s wall, "
        f"{streaming['peak_heap_mb']:.1f} MiB peak heap, "
        f"{streaming['se_campaigns']} SE campaigns, "
        f"{streaming['milked_domains']} milked domains",
    )
