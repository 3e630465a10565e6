"""Deterministic parallel crawl sharding (repro.parallel).

The contract under test: ``run_streaming(workers=K)`` produces results
and store contents *byte-identical* to ``workers=1`` — same interaction
sequence, same clock values, same campaigns, same milking report — for
any K, any seed, with and without fault injection.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import shutil

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.core.farm import shard_index
from repro.core.milking import MilkingConfig
from repro.errors import ConfigError, ReproError
from repro.parallel import executor as executor_module
from repro.store import JsonlStore

from tests.golden import golden, run_key, streaming_digests

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)


def make_pipeline(seed: int, fault_rate: float = 0.0) -> SeacmaPipeline:
    config = WorldConfig.tiny(seed=seed)
    if fault_rate:
        config = dataclasses.replace(config, fault_rate=fault_rate)
    return SeacmaPipeline(build_world(config), milking_config=MILKING)


def fingerprint(pipeline: SeacmaPipeline, result) -> dict:
    """Everything that must match between sequential and sharded runs."""
    world = pipeline.world
    return {
        "interactions": [
            (
                record.publisher_domain,
                record.ua_name,
                record.vantage_name,
                record.timestamp,
                record.landing_url,
                f"{record.screenshot_hash:032x}",
            )
            for record in result.crawl.interactions
        ],
        "sessions": result.crawl.sessions,
        "publishers": (
            result.crawl.publishers_visited,
            result.crawl.publishers_institutional,
            result.crawl.publishers_residential,
        ),
        "residential_dropped": result.crawl.residential_dropped,
        "finished_at": result.crawl.finished_at,
        "clock": repr(world.clock.now()),
        "fetches": world.internet.fetch_count,
        "campaigns": sorted(
            campaign.label for campaign in result.discovery.campaigns
        ),
        "attributed": {
            key: len(records)
            for key, records in result.attribution.by_network.items()
        },
        "milked_domains": sorted(
            domain.domain for domain in result.milking.domains
        ),
        "fault_stats": (
            result.fault_stats.snapshot()["delay_terms"]
            and sorted(result.fault_stats.snapshot()["delay_terms"])
            if result.fault_stats is not None
            else None
        ),
        "faults_injected": (
            result.fault_stats.faults_injected
            if result.fault_stats is not None
            else None
        ),
        "impressions": {
            key: (
                server.impressions,
                server.se_impressions,
                server.syndicated_impressions,
            )
            for key, server in world.networks.items()
        },
    }


class TestShardPartition:
    def test_stable_across_list_order(self):
        domains = [f"site-{n}.example" for n in range(40)]
        forward = {domain: shard_index(domain, 4) for domain in domains}
        backward = {domain: shard_index(domain, 4) for domain in reversed(domains)}
        assert forward == backward

    def test_partition_is_total_and_disjoint(self):
        domains = [f"pub{n}.test" for n in range(100)]
        shards = [
            {d for d in domains if shard_index(d, 4) == k} for k in range(4)
        ]
        assert set().union(*shards) == set(domains)
        assert sum(len(shard) for shard in shards) == len(domains)

    def test_roughly_balanced(self):
        domains = [f"publisher-{n}.net" for n in range(400)]
        counts = [
            sum(1 for d in domains if shard_index(d, 4) == k) for k in range(4)
        ]
        # A stable hash should spread 400 domains well away from all-in-one.
        assert min(counts) > 50

    def test_single_shard_takes_everything(self):
        assert shard_index("anything.example", 1) == 0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigError):
            shard_index("a.example", 0)


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_two_workers_match_sequential(self, seed):
        base_pipe = make_pipeline(seed)
        base = fingerprint(base_pipe, base_pipe.run_streaming(workers=1))
        par_pipe = make_pipeline(seed)
        par = fingerprint(par_pipe, par_pipe.run_streaming(workers=2))
        assert par == base

    def test_four_workers_match_sequential(self):
        base_pipe = make_pipeline(7)
        base = fingerprint(base_pipe, base_pipe.run_streaming(workers=1))
        par_pipe = make_pipeline(7)
        par = fingerprint(par_pipe, par_pipe.run_streaming(workers=4))
        assert par == base

    def test_faulty_world_matches_sequential(self):
        base_pipe = make_pipeline(5, fault_rate=0.05)
        base = fingerprint(base_pipe, base_pipe.run_streaming(workers=1))
        par_pipe = make_pipeline(5, fault_rate=0.05)
        par = fingerprint(par_pipe, par_pipe.run_streaming(workers=2))
        assert par == base
        assert base["faults_injected"] > 0  # the comparison exercised faults


class TestStoreByteIdentity:
    def _store_files(self, tmp_path, seed, workers):
        directory = tmp_path / f"w{workers}"
        pipeline = make_pipeline(seed)
        store = JsonlStore(directory, run_id=f"seed-{seed}")
        pipeline.run_streaming(store=store, workers=workers)
        store.close()
        return {
            path.name: path.read_bytes() for path in directory.glob("*.jsonl")
        }

    def test_store_streams_identical(self, tmp_path):
        sequential = self._store_files(tmp_path, 3, 1)
        sharded = self._store_files(tmp_path, 3, 4)
        assert sequential == sharded
        assert "interactions.jsonl" in sequential

    def test_no_segment_leftovers(self, tmp_path):
        directory = tmp_path / "clean"
        pipeline = make_pipeline(3)
        store = JsonlStore(directory, run_id="clean")
        pipeline.run_streaming(store=store, workers=2, with_milking=False)
        store.close()
        assert not (directory / "shards").exists()

    def test_failed_worker_leaves_no_segment_dir(self, tmp_path, monkeypatch):
        # An in-memory store's segments go to a fresh temp directory; a
        # run whose shard worker fails must remove it like a finished one.
        import tempfile

        def broken_world(config):
            raise RuntimeError("world build failed")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(executor_module, "build_world", broken_world)
        pipeline = make_pipeline(3)
        with pytest.raises(ReproError, match="world build failed"):
            pipeline.run_streaming(workers=2, with_milking=False)
        assert list(tmp_path.iterdir()) == []

    def test_spawn_start_method_matches_golden(self, tmp_path, monkeypatch):
        # A spawned worker shares no memory with the parent: everything
        # it crawls comes from the pickled ShardSpec alone.
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            executor_module.multiprocessing, "get_context", lambda method: spawn
        )
        expected = golden()["streaming"][run_key(7, 2)]
        assert streaming_digests(tmp_path / "store", 7, 2) == expected


class TestParallelResume:
    def test_resume_with_workers_matches_sequential_resume(self, tmp_path):
        from repro.store.persist import load_world

        def interrupted_store(directory):
            pipeline = make_pipeline(5)
            store = JsonlStore(directory, run_id="resume")
            run = pipeline.start_streaming(store=store, with_milking=False)
            for count, _ in enumerate(run.crawl_batches()):
                if count >= 5:
                    break
            store.close()

        first = tmp_path / "sequential"
        interrupted_store(first)
        second = tmp_path / "sharded"
        shutil.copytree(first, second)

        results = {}
        for directory, workers in ((first, 1), (second, 2)):
            store = JsonlStore.open(directory)
            world = load_world(store)
            pipeline = SeacmaPipeline(world, milking_config=MILKING)
            result = pipeline.resume_streaming(
                store, with_milking=False, workers=workers
            )
            store.close()
            results[workers] = {
                name: (directory / name).read_bytes()
                for name in (
                    "interactions.jsonl",
                    "hashes.jsonl",
                    "progress.jsonl",
                    "campaigns.jsonl",
                )
            }
            assert result.crawl.finished_at > 0
        assert results[1] == results[2]


    def test_resume_of_completed_crawl_still_delivers_summaries(self, tmp_path):
        # Zero pending entries means the merge loop returns immediately;
        # the executor must still wait for every worker's summary record
        # instead of terminating the workers mid-write.
        from repro.store.persist import load_world

        directory = tmp_path / "done"
        pipeline = make_pipeline(5)
        store = JsonlStore(directory, run_id="done")
        run = pipeline.start_streaming(store=store, with_milking=False)
        for _ in run.crawl_batches():  # full crawl, then die pre-finalize
            pass
        store.close()

        store = JsonlStore.open(directory)
        world = load_world(store)
        result = SeacmaPipeline(world, milking_config=MILKING).resume_streaming(
            store, with_milking=False, workers=2
        )
        store.close()
        assert result.crawl.publishers_visited > 0
        assert not (directory / "shards").exists()


class TestSegmentReaderTornFiles:
    """A worker killed mid-write leaves a torn segment tail; the parent's
    reader must simply never surface it as a record."""

    def _write(self, path, *lines, torn=b""):
        with path.open("wb") as handle:
            for line in lines:
                handle.write(line + b"\n")
            handle.write(torn)

    def test_missing_segment_yields_nothing(self, tmp_path):
        from repro.store.segments import SegmentReader

        assert SegmentReader(tmp_path / "never-created.jsonl").poll() == []

    def test_torn_tail_never_surfaces(self, tmp_path):
        from repro.store.segments import SegmentReader

        path = tmp_path / "seg.jsonl"
        self._write(
            path,
            b'{"kind":"batch","position":0}',
            torn=b'{"kind":"batch","posi',
        )
        reader = SegmentReader(path)
        assert [r["position"] for r in reader.poll()] == [0]
        assert reader.poll() == []  # the torn tail stays invisible

    def test_completed_tail_surfaces_on_next_poll(self, tmp_path):
        from repro.store.segments import SegmentReader

        path = tmp_path / "seg.jsonl"
        self._write(path, b'{"kind":"batch","position":0}', torn=b'{"kind":')
        reader = SegmentReader(path)
        assert len(reader.poll()) == 1
        with path.open("ab") as handle:
            handle.write(b'"batch","position":1}\n')
        assert [r["position"] for r in reader.poll()] == [1]

    def test_interior_corruption_raises(self, tmp_path):
        from repro.errors import StoreError
        from repro.store.segments import SegmentReader

        path = tmp_path / "seg.jsonl"
        self._write(path, b'{"kind":"batch"', b'{"kind":"batch","position":1}')
        with pytest.raises(StoreError, match="corrupt shard segment"):
            SegmentReader(path).poll()


class TestWorkerDeathRespawn:
    def test_crashed_worker_respawned_with_identical_store(
        self, tmp_path, monkeypatch
    ):
        # A worker that dies with the chaos exit code mid-segment (here: a
        # raise-mode crash between a record and its newline, so the torn
        # tail actually hits the segment file) is respawned; the merged
        # canonical streams must stay byte-identical to an undisturbed run.
        from repro.chaos import CrashDirective
        from repro.chaos import points as chaos_points

        def run(directory):
            pipeline = make_pipeline(3)
            store = JsonlStore(directory, run_id="respawn")
            pipeline.run_streaming(store=store, workers=2, with_milking=False)
            store.close()
            return {
                path.name: path.read_bytes()
                for path in sorted(directory.glob("*.jsonl"))
            }

        reference = run(tmp_path / "reference")

        token = tmp_path / "token"
        directive = CrashDirective("segment.emit.mid", occurrence=3, mode="raise")
        for key, value in directive.to_env(token).items():
            monkeypatch.setenv(key, value)
        chaos_points.reset()
        try:
            crashed = run(tmp_path / "crashed")
        finally:
            monkeypatch.delenv(chaos_points.ENV_POINT)
            chaos_points.reset()

        assert token.exists(), "the scheduled worker crash never fired"
        assert crashed == reference
        assert not (tmp_path / "crashed" / "shards").exists()


class TestStreamingRunValidation:
    def test_zero_workers_rejected(self):
        pipeline = make_pipeline(3)
        with pytest.raises(ValueError):
            pipeline.run_streaming(workers=0)
