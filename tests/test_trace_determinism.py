"""Telemetry determinism guarantees (repro.telemetry × repro.parallel).

Two hard contracts from the telemetry design:

1. **Off ⇒ invisible.** Running with telemetry disabled produces store
   bytes identical to a run that never imported telemetry; running with
   telemetry *enabled* also leaves the store byte-identical.
2. **Sim lane ⇒ canonical.** The sim-clock span tree (lane ``sim``,
   wall-clock stripped) is byte-identical across ``workers`` ∈ {1,2,4},
   across repeat runs, and under fault injection — only the shard lane
   (``farm.domain`` drive spans, ``parallel.merge``) may vary with the
   execution shape, and metrics hold no wall-clock quantities, so the
   Prometheus export matches too.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.core.milking import MilkingConfig
from repro.store import JsonlStore
from repro.telemetry import SIM_LANE, Telemetry, use
from repro.telemetry.export import canonical_trace_bytes

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)


def make_config(seed: int, fault_rate: float = 0.0) -> WorldConfig:
    config = WorldConfig(seed=seed, n_publishers=8, n_campaigns=6)
    if fault_rate:
        config = dataclasses.replace(config, fault_rate=fault_rate)
    return config


def store_digest(store_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(store_dir.glob("*.jsonl")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_traced(
    tmp_path: Path,
    seed: int,
    workers: int,
    *,
    fault_rate: float = 0.0,
    with_milking: bool = True,
    telemetry_on: bool = True,
    tag: str = "run",
) -> tuple[bytes | None, str | None, str]:
    """One streaming run; returns (canonical trace, prometheus text, store digest)."""
    store_dir = tmp_path / f"{tag}-s{seed}-w{workers}"
    world = build_world(make_config(seed, fault_rate))
    pipeline = SeacmaPipeline(world, milking_config=MILKING)
    store = JsonlStore(store_dir)
    if not telemetry_on:
        pipeline.run_streaming(
            store=store, workers=workers, with_milking=with_milking,
        )
        return None, None, store_digest(store_dir)
    telemetry = Telemetry(world.clock)
    with use(telemetry):
        pipeline.run_streaming(
            store=store, workers=workers, with_milking=with_milking,
        )
    return (
        canonical_trace_bytes(telemetry),
        telemetry.metrics.to_prometheus(),
        store_digest(store_dir),
    )


class TestCanonicalTraceMatrix:
    def test_identical_across_worker_counts(self, tmp_path):
        base_trace, base_prom, base_store = run_traced(tmp_path, 7, 1)
        assert base_trace  # non-trivial: the run actually produced spans
        for workers in (2, 4):
            trace, prom, store = run_traced(tmp_path, 7, workers)
            assert trace == base_trace, f"sim span tree drifted at workers={workers}"
            assert prom == base_prom, f"metrics drifted at workers={workers}"
            assert store == base_store, f"store bytes drifted at workers={workers}"

    def test_identical_across_repeat_runs(self, tmp_path):
        first = run_traced(tmp_path, 7, 2, tag="a")
        second = run_traced(tmp_path, 7, 2, tag="b")
        assert first == second

    def test_identical_under_fault_injection(self, tmp_path):
        base_trace, base_prom, _ = run_traced(tmp_path, 7, 1, fault_rate=0.05)
        trace, prom, _ = run_traced(tmp_path, 7, 2, fault_rate=0.05)
        assert trace == base_trace
        assert prom == base_prom

    def test_second_seed_without_milking(self, tmp_path):
        base_trace, base_prom, base_store = run_traced(
            tmp_path, 13, 1, with_milking=False
        )
        trace, prom, store = run_traced(tmp_path, 13, 2, with_milking=False)
        assert trace == base_trace
        assert prom == base_prom
        assert store == base_store

    def test_different_seeds_diverge(self, tmp_path):
        """Sanity: the canonical trace is not vacuously constant."""
        trace_a, _, _ = run_traced(tmp_path, 7, 1, with_milking=False)
        trace_b, _, _ = run_traced(tmp_path, 13, 1, with_milking=False)
        assert trace_a != trace_b


class TestDisabledTelemetryByteIdentity:
    def test_store_bytes_unchanged_by_telemetry(self, tmp_path):
        _, _, plain = run_traced(tmp_path, 7, 1, telemetry_on=False, tag="off")
        _, _, traced = run_traced(tmp_path, 7, 1, telemetry_on=True, tag="on")
        assert plain == traced

    def test_store_bytes_unchanged_by_telemetry_parallel(self, tmp_path):
        _, _, plain = run_traced(tmp_path, 7, 2, telemetry_on=False, tag="off")
        _, _, traced = run_traced(tmp_path, 7, 2, telemetry_on=True, tag="on")
        assert plain == traced


class TestShardLaneProvenance:
    def test_worker_spans_are_adopted_with_host_tags(self, tmp_path):
        world = build_world(make_config(7))
        pipeline = SeacmaPipeline(world, milking_config=MILKING)
        telemetry = Telemetry(world.clock)
        with use(telemetry):
            pipeline.run_streaming(workers=2)
        records = telemetry.tracer.records(include_wall=True)
        shards = {
            record["host"]["shard"]
            for record in records
            if record.get("host") is not None
        }
        # Which shards fire depends on the domain hash split, but every
        # worker that crawled anything must have had its spans adopted.
        assert shards
        assert shards <= {0, 1}
        merge = [r for r in records if r["name"] == "parallel.merge"]
        assert len(merge) == 1
        assert merge[0]["attrs"] == {"workers": 2}
        assert merge[0]["lane"] != SIM_LANE

    def test_sim_lane_carries_no_execution_shape(self, tmp_path):
        """No sim-lane span may mention workers/shards — that is what
        makes the canonical tree comparable across execution shapes."""
        world = build_world(make_config(7))
        pipeline = SeacmaPipeline(world, milking_config=MILKING)
        telemetry = Telemetry(world.clock)
        with use(telemetry):
            pipeline.run_streaming(workers=4)
        for record in telemetry.tracer.records(include_wall=False):
            if record["lane"] == SIM_LANE:
                attrs = record.get("attrs") or {}
                assert "workers" not in attrs
                assert "shard" not in attrs
