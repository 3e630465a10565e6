"""Telemetry overhead: instrumented vs uninstrumented pipeline wall time.

Runs the identical streamed pipeline (crawl + discovery + milking) with
telemetry off and with full tracing + metrics enabled, takes the best of
several repetitions of each, and records the numbers in
``results/BENCH_telemetry.json``.

The acceptance bar: enabling telemetry must cost **< 10%** wall-clock
overhead.  The disabled path is also bounded — a run that never
activates a ``Telemetry`` context goes through ``NullTelemetry`` no-ops
only, so it must be indistinguishable from the seed pipeline (the
byte-identity of its *outputs* is asserted in
``tests/test_trace_determinism.py``; here we keep the *time* honest).
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.core.milking import MilkingConfig
from repro.store import JsonlStore
from repro.telemetry import Telemetry, use

TELEMETRY_BENCH_CONFIG = WorldConfig.tiny(seed=9)

BENCH_MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

REPS = 5


def run_once(traced: bool) -> tuple[float, dict]:
    """One full streamed run; returns (wall seconds, span/metric counts)."""
    world = build_world(TELEMETRY_BENCH_CONFIG)
    pipeline = SeacmaPipeline(world, milking_config=BENCH_MILKING)
    counts: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench-telemetry-") as tmp:
        store = JsonlStore(pathlib.Path(tmp) / "store")
        started = time.perf_counter()
        if traced:
            telemetry = Telemetry(world.clock)
            with use(telemetry):
                pipeline.run_streaming(store=store)
            wall = time.perf_counter() - started
            snapshot = telemetry.metrics.snapshot()
            counts = {
                "spans": len(telemetry.tracer.spans),
                "events": sum(
                    len(span.events) for span in telemetry.tracer.spans
                ),
                "counters": len(snapshot["counters"]),
                "histogram_observations": sum(
                    h["count"] for h in snapshot["histograms"].values()
                ),
            }
        else:
            pipeline.run_streaming(store=store)
            wall = time.perf_counter() - started
    return wall, counts


def best_of(traced: bool) -> tuple[float, dict]:
    walls = []
    counts: dict = {}
    for _ in range(REPS):
        wall, counts = run_once(traced)
        walls.append(wall)
    return min(walls), counts


def test_telemetry_overhead():
    plain_wall, _ = best_of(traced=False)
    traced_wall, counts = best_of(traced=True)
    overhead = traced_wall / plain_wall - 1.0
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    payload = {
        "benchmark": "telemetry_overhead",
        "world": {
            "preset": "tiny",
            "publishers": TELEMETRY_BENCH_CONFIG.n_publishers,
            "campaigns": TELEMETRY_BENCH_CONFIG.n_campaigns,
            "seed": TELEMETRY_BENCH_CONFIG.seed,
        },
        "usable_cores": cores,
        "reps": REPS,
        "plain_wall_seconds": round(plain_wall, 3),
        "traced_wall_seconds": round(traced_wall, 3),
        "overhead_pct": round(overhead * 100.0, 2),
        "trace_size": counts,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_telemetry.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert counts["spans"] > 0 and counts["histogram_observations"] > 0, (
        "traced run recorded no telemetry — the benchmark measured nothing"
    )
    assert overhead < 0.10, (
        f"telemetry costs {overhead * 100.0:.1f}% wall overhead "
        f"(bar: <10%, best of {REPS} reps)"
    )
