"""Durability overhead and crash-recovery cost of the chaos-hardened store.

Three streamed runs over the same world, differing only in the store's
durability posture:

* ``baseline`` — a :class:`JsonlStore` with the write barriers stubbed
  out (no intent journal), i.e. the store as it was before the chaos
  harness landed;
* ``durable`` — the real store, intents on, ``fsync`` off (the default
  every test and CLI run uses);
* ``fsync`` — the paranoid mode: every append, cut and journal write
  synced.

The acceptance bar: with fsync off, the durability layer (intent
journal + crash-point checks) must cost **under 10%** wall-clock over
the baseline.  The fsync ratio is recorded but not barred — its cost is
hardware truth, not an implementation property.

A recovery scenario is also timed end to end via
:class:`~repro.chaos.ChaosRunner`: crash a CLI run mid-crawl, resume
it, and verify the recovered store is byte-identical to an
uninterrupted reference.  Everything lands in
``results/BENCH_chaos.json``.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.chaos import ChaosRunner, CrashDirective
from repro.core.milking import MilkingConfig
from repro.store import JsonlStore

CHAOS_BENCH_CONFIG = WorldConfig.tiny(seed=9)
BENCH_MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Best-of-N timing to tame scheduler noise on small runners.
REPEATS = 2


class _BaselineStore(JsonlStore):
    """The pre-durability store: same appends, no write barriers."""

    def begin_intent(self, label: str) -> None:  # noqa: ARG002
        pass

    def commit_intent(self) -> None:
        pass


def _timed_run(store_cls, fsync: bool) -> tuple[float, dict]:
    with tempfile.TemporaryDirectory(prefix="seacma-chaos-bench-") as scratch:
        store = store_cls(
            pathlib.Path(scratch) / "store", run_id="bench", fsync=fsync
        )
        pipeline = SeacmaPipeline(
            build_world(CHAOS_BENCH_CONFIG), milking_config=BENCH_MILKING
        )
        started = time.perf_counter()
        result = pipeline.run_streaming(store=store)
        wall = time.perf_counter() - started
        stats = {
            "interactions": len(result.crawl.interactions),
            "feed_versions": len(result.feed),
        }
        store.close()
    return wall, stats


def measure(store_cls, fsync: bool = False) -> dict:
    walls = []
    stats: dict = {}
    for _ in range(REPEATS):
        wall, stats = _timed_run(store_cls, fsync)
        walls.append(wall)
    return {"wall_seconds": round(min(walls), 3), **stats}


def test_durability_overhead_and_recovery():
    baseline = measure(_BaselineStore)
    durable = measure(JsonlStore)
    fsync = measure(JsonlStore, fsync=True)
    overhead = durable["wall_seconds"] / baseline["wall_seconds"]
    fsync_overhead = fsync["wall_seconds"] / baseline["wall_seconds"]

    with tempfile.TemporaryDirectory(prefix="seacma-chaos-rec-") as scratch:
        runner = ChaosRunner(scratch, seed=9, workers=1, days=2.0)
        started = time.perf_counter()
        runner.reference()
        reference_seconds = time.perf_counter() - started
        started = time.perf_counter()
        report = runner.run_case(
            CrashDirective("checkpoint.persist", occurrence=40, mode="kill")
        )
        recovery_seconds = time.perf_counter() - started
    assert report.fired and report.identical, report.describe()

    payload = {
        "benchmark": "chaos_recovery",
        "world": {
            "publishers": CHAOS_BENCH_CONFIG.n_publishers,
            "campaigns": CHAOS_BENCH_CONFIG.n_campaigns,
            "seed": CHAOS_BENCH_CONFIG.seed,
        },
        "baseline_no_intents": baseline,
        "durable_fsync_off": durable,
        "durable_fsync_on": fsync,
        "durability_overhead_ratio": round(overhead, 3),
        "fsync_overhead_ratio": round(fsync_overhead, 3),
        "recovery_scenario": {
            "directive": "checkpoint.persist:40[kill]",
            "reference_run_seconds": round(reference_seconds, 3),
            "crash_resume_verify_seconds": round(recovery_seconds, 3),
            "byte_identical": report.identical,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_chaos.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert overhead < 1.10, (
        f"durability layer costs {(overhead - 1) * 100:.1f}% over the "
        "no-intent baseline (bar: <10%)"
    )
