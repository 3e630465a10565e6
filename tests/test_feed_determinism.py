"""Feed determinism: the snapshot history is byte-identical everywhere.

The contract: the blocklist feed a run publishes is a pure function of
(world config, pipeline arguments).  Batch and streaming mode, repeat
runs, any ``--workers`` count, and resumed runs must all produce the
same canonical snapshot bytes — and the protection the feed delivers
must lead the simulated Safe Browsing blacklist.
"""

from __future__ import annotations

import shutil

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.core.milking import MilkingConfig
from repro.feed import FeedClientFleet, FeedServer, FleetConfig
from repro.store import JsonlStore
from repro.store.memory import MemoryStore
from repro.store.persist import load_result, load_world

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)


def make_pipeline(seed: int) -> SeacmaPipeline:
    return SeacmaPipeline(
        build_world(WorldConfig.tiny(seed=seed)), milking_config=MILKING
    )


def feed_bytes(result) -> list[bytes]:
    return [snapshot.canonical_bytes() for snapshot in result.feed]


def delta_responses(result) -> list[tuple[str, bytes]]:
    """What every possible stale client would be served, byte for byte."""
    from repro.feed import FeedRequest, FeedServer

    server = FeedServer(result.feed)
    return [
        (response.status, response.payload)
        for version in range(1, len(result.feed))
        for response in [server.handle(FeedRequest(client_version=version))]
    ]


class TestModeAndRepeatIdentity:
    def test_batch_streaming_and_repeat_runs_identical(self):
        batch = make_pipeline(3).run()
        stream_one = make_pipeline(3).run_streaming(
            store=MemoryStore(run_id="one")
        )
        stream_two = make_pipeline(3).run_streaming(
            store=MemoryStore(run_id="two")
        )
        assert feed_bytes(batch)
        assert (
            feed_bytes(batch)
            == feed_bytes(stream_one)
            == feed_bytes(stream_two)
        )

    def test_versions_are_contiguous_and_time_ordered(self):
        result = make_pipeline(3).run()
        versions = [snapshot.version for snapshot in result.feed]
        assert versions == list(range(1, len(versions) + 1))
        times = [snapshot.published_at for snapshot in result.feed]
        assert times == sorted(times)

    def test_store_round_trip_preserves_feed(self):
        store = MemoryStore(run_id="rt")
        result = make_pipeline(3).run_streaming(store=store)
        loaded = load_result(store)
        assert feed_bytes(loaded) == feed_bytes(result)
        server = FeedServer.from_store(store)
        assert server.latest.content_hash == result.feed[-1].content_hash


class TestWorkersByteIdentity:
    def test_feed_identical_across_worker_counts(self, tmp_path):
        per_workers = {}
        for workers in (1, 2, 4):
            directory = tmp_path / f"w{workers}"
            store = JsonlStore(directory, run_id=f"w{workers}")
            result = make_pipeline(3).run_streaming(store=store, workers=workers)
            store.close()
            per_workers[workers] = (
                (directory / "feed.jsonl").read_bytes(),
                feed_bytes(result),
                delta_responses(result),
            )
        assert per_workers[1] == per_workers[2] == per_workers[4]
        assert per_workers[1][1], "run published no snapshots"


class TestResumeByteIdentity:
    def test_resumed_run_feed_matches_across_worker_counts(self, tmp_path):
        def interrupted_store(directory):
            pipeline = make_pipeline(5)
            store = JsonlStore(directory, run_id="resume")
            run = pipeline.start_streaming(store=store)
            for count, _ in enumerate(run.crawl_batches()):
                if count >= 5:
                    break  # die mid-crawl, pre-milking
            store.close()

        first = tmp_path / "sequential"
        interrupted_store(first)
        second = tmp_path / "sharded"
        shutil.copytree(first, second)

        feeds = {}
        for directory, workers in ((first, 1), (second, 2)):
            store = JsonlStore.open(directory)
            world = load_world(store)
            pipeline = SeacmaPipeline(world, milking_config=MILKING)
            result = pipeline.resume_streaming(store, workers=workers)
            store.close()
            feeds[workers] = (
                (directory / "feed.jsonl").read_bytes(),
                feed_bytes(result),
            )
        assert feeds[1] == feeds[2]
        assert feeds[1][1], "resumed run published no snapshots"


class TestFeedLeadsGsb:
    def test_fleet_protection_leads_simulated_gsb(self, feed_store):
        _, store, _ = feed_store
        server = FeedServer.from_store(store)
        world = load_world(store)
        config = FleetConfig(
            cohorts=4, clients_per_cohort=100, poll_interval_minutes=60.0
        )
        report = FeedClientFleet(server, config, gsb=world.gsb).run()
        assert report.protection, "fleet protected no domains"
        listed = [
            item for item in report.protection if item.gsb_listed_at is not None
        ]
        if listed:
            # Wherever GSB eventually lists a milked domain, the feed got
            # clients blocking it first.
            assert report.mean_head_start_days() > 0
        else:
            # GSB never caught up at all inside the window: the feed is
            # the only protection there is.
            assert report.gsb_listed_fraction() == 0.0
        assert report.protection
        assert all(item.mean_protected_at > item.milked_at for item in report.protection)
