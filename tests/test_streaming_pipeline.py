"""Streaming pipeline: batch equivalence, persistence, and resume.

The contract under test (DESIGN.md, "Streaming architecture"):

* ``run()`` and a hand-driven ``start_streaming()`` produce
  **byte-identical** campaigns, attribution and milking, for any seed,
  and the same as the one-shot stage methods (``crawl``, ``discover``,
  ``attribute``, ``milk``) chained by hand;
* a run streamed into a :class:`JsonlStore` regenerates the same report
  offline (store → reload → report == live report);
* a run whose process dies mid-crawl resumes from its store and
  completes.
"""

from __future__ import annotations

import gc
import json
from collections import deque

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.analysis.export import (
    export_crawl_dataset,
    export_milking_report,
    interaction_to_dict,
)
from repro.analysis.reportgen import generate_report
from repro.core.crawler import AdInteraction, ChainNode
from repro.core.milking import MilkingConfig
from repro.core.pipeline import PipelineResult
from repro.errors import ConfigError, StoreError
from repro.store import INTERACTIONS, JsonlStore, MemoryStore
from repro.store.persist import load_result, load_world

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)


def make_pipeline(seed: int):
    world = build_world(WorldConfig.tiny(seed=seed))
    return world, SeacmaPipeline(world, milking_config=MILKING)


def fingerprint(world, result) -> dict[str, str]:
    """Byte-exact serialization of every equivalence-relevant artifact.

    JSON objects are key-sorted so the fingerprint is insensitive to
    dict insertion order (the store writes records key-sorted), while
    every value — including list order — must match exactly.
    """
    return {
        "crawl": _sorted_json(export_crawl_dataset(result.crawl.interactions)),
        "campaigns": json.dumps(
            [
                {
                    "cluster_id": cluster.cluster_id,
                    "label": cluster.label,
                    "category": cluster.category.value if cluster.category else None,
                    "pairs": [[f"{h:032x}", e] for h, e in cluster.pairs],
                    "members": [
                        interaction_to_dict(record)
                        for record in cluster.interactions
                    ],
                }
                for cluster in result.discovery.campaigns
            ],
            sort_keys=True,
        ),
        "attribution": json.dumps(
            {
                "by_network": {
                    key: [interaction_to_dict(record) for record in records]
                    for key, records in result.attribution.by_network.items()
                },
                "unknown": [
                    interaction_to_dict(record)
                    for record in result.attribution.unknown
                ],
            },
            sort_keys=True,
        ),
        "milking": _sorted_json(export_milking_report(result.milking)),
        "clock": repr(world.clock.now()),
    }


def _sorted_json(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True)


# --------------------------------------------------------- equivalence


class TestBatchStreamingEquivalence:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_streaming_equals_batch_across_schedules(self, seed):
        world, pipeline = make_pipeline(seed)
        baseline = fingerprint(world, pipeline.run())
        arms = {"stages": self._stagewise(seed), "streamed": self._streamed(seed)}
        for arm, run in arms.items():
            candidate = fingerprint(*run)
            for component, expected in baseline.items():
                assert candidate[component] == expected, (
                    f"seed {seed}, {arm}: {component} diverged"
                )

    @staticmethod
    def _stagewise(seed):
        """The paper's stages run one-shot, each over the whole crawl."""
        world, pipeline = make_pipeline(seed)
        patterns = pipeline.derive_patterns()
        crawl = pipeline.crawl(pipeline.reverse_publishers(patterns))
        discovery = pipeline.discover(crawl)
        attribution = pipeline.attribute(crawl, patterns)
        result = PipelineResult(
            crawl=crawl, discovery=discovery, attribution=attribution
        )
        result.milking = pipeline.milk(discovery)
        return world, result

    @staticmethod
    def _streamed(seed):
        """The streaming loop driven by hand, one finished domain at a time."""
        world, pipeline = make_pipeline(seed)
        run = pipeline.start_streaming()
        for _ in run.crawl_batches():
            pass
        return world, run.finalize()

    def test_live_stage_results_mid_crawl(self):
        world, pipeline = make_pipeline(3)
        run = pipeline.start_streaming(with_milking=False)
        for batch in run.crawl_batches():
            # Every yielded domain is already ingested: the stages have
            # seen exactly the rows the store holds.
            assert len(run.attribution_stage.keys) == run.store.count(INTERACTIONS)
            # Incremental stages answer at any point of the stream.
            census = run.discovery_stage.finalize()
            assert census.clusters_before_filter >= 0
        result = run.finalize()
        assert result.discovery.campaigns
        # finalize() is idempotent.
        assert run.finalize() is result


# ---------------------------------------------------------- persistence


class TestJsonlPersistence:
    def test_store_reload_report_roundtrip(self, tmp_path):
        # Live run into a durable store...
        world, pipeline = make_pipeline(7)
        with JsonlStore(tmp_path / "run", run_id="tiny-7") as store:
            result = pipeline.run_streaming(store=store)
            live_report = generate_report(world, result)

        # ...equals the same run into a memory store...
        memory_world, memory_pipeline = make_pipeline(7)
        memory_result = memory_pipeline.run_streaming(store=MemoryStore())
        assert generate_report(memory_world, memory_result) == live_report

        # ...and regenerates offline from the reloaded directory alone.
        reopened = JsonlStore.open(tmp_path / "run")
        assert generate_report(load_world(reopened), load_result(reopened)) == live_report
        assert reopened.get_meta("status") == "finished"

    def test_loaded_result_matches_live(self, tmp_path):
        world, pipeline = make_pipeline(3)
        store = JsonlStore(tmp_path / "run")
        result = pipeline.run_streaming(store=store)
        live = fingerprint(world, result)
        loaded = load_result(JsonlStore.open(tmp_path / "run"))
        loaded_world = load_world(JsonlStore.open(tmp_path / "run"))
        reloaded = fingerprint(loaded_world, loaded)
        assert reloaded == live

    def test_fresh_run_refuses_populated_store(self, tmp_path):
        _, first = make_pipeline(3)
        store = JsonlStore(tmp_path / "run")
        driver = first.start_streaming(store=store)
        batches = driver.crawl_batches()
        next(batches)
        batches.close()
        _, second = make_pipeline(3)
        with pytest.raises(StoreError, match="resume"):
            second.start_streaming(store=store)

    def test_store_misuse_errors(self, tmp_path):
        with pytest.raises(StoreError, match="missing"):
            JsonlStore.open(tmp_path / "nothing-here")
        store = JsonlStore(tmp_path / "run", run_id="alpha")
        store.close()
        with pytest.raises(StoreError, match="already holds run"):
            JsonlStore(tmp_path / "run", run_id="beta")
        (tmp_path / "run" / "interactions.jsonl").write_text("{not json\n")
        with pytest.raises(StoreError, match="corrupt"):
            JsonlStore.open(tmp_path / "run").read("interactions")

    def test_meta_last_write_wins(self):
        store = MemoryStore()
        store.put_meta("status", "running")
        store.put_meta("status", "finished")
        assert store.get_meta("status") == "finished"
        assert store.count("meta") == 2  # appends, never rewrites


# --------------------------------------------------------------- resume


class TestResume:
    def test_resume_completes_interrupted_run(self, tmp_path):
        # A streaming run whose process dies after 9 domains...
        world, pipeline = make_pipeline(11)
        store = JsonlStore(tmp_path / "run", run_id="tiny-11")
        driver = pipeline.start_streaming(store=store)
        batches = driver.crawl_batches()
        for index, _ in enumerate(batches):
            if index == 8:
                break
        batches.close()
        interrupted_domains = store.count("progress")
        store.close()

        # ...resumes in a fresh "process": world rebuilt from the store.
        reopened = JsonlStore.open(tmp_path / "run")
        resumed_world = load_world(reopened)
        resumed = SeacmaPipeline(resumed_world, milking_config=MILKING)
        result = resumed.resume_streaming(reopened)

        assert result.crawl.publishers_visited > interrupted_domains
        assert reopened.get_meta("status") == "finished"
        assert result.discovery is not None and result.milking is not None
        # No domain is crawled (or charged) twice across the restart.
        domains = [record["domain"] for record in reopened.read("progress")]
        assert len(domains) == len(set(domains))
        assert result.crawl.publishers_visited == len(domains)
        # The stored rows stayed consistent with the final result.
        assert reopened.count("interactions") == len(result.crawl.interactions)

    def test_resume_refuses_finished_run(self, tmp_path):
        _, pipeline = make_pipeline(3)
        store = JsonlStore(tmp_path / "run")
        pipeline.run_streaming(store=store, with_milking=False)
        _, again = make_pipeline(3)
        with pytest.raises(StoreError, match="already finished"):
            again.resume_streaming(store)

    def test_resume_refuses_empty_store(self, tmp_path):
        store = JsonlStore(tmp_path / "run")
        _, pipeline = make_pipeline(3)
        with pytest.raises(StoreError, match="no run to resume"):
            pipeline.resume_streaming(store)


# ------------------------------------------------ the store is the dataset


class TestStoreIsTheDataset:
    """No stage keeps a crawl record alive: the store holds them, and
    every consumer reads its rows back (DESIGN.md, "The store is the
    dataset")."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_live_records_after_finalize(self, tmp_path, workers):
        def live_records():
            return [
                obj
                for obj in gc.get_objects()
                if isinstance(obj, (AdInteraction, ChainNode))
            ]

        gc.collect()
        # Held, so no id below can be reused by a record of this run.
        before = live_records()
        known = {id(obj) for obj in before}
        world, pipeline = make_pipeline(5)
        with JsonlStore(tmp_path / "run", run_id="tiny-5") as store:
            # The run is held too: its stages, farm and checkpoint live on.
            run = pipeline.start_streaming(store, workers=workers)
            deque(run.crawl_batches(), maxlen=0)  # binds no batch
            result = run.finalize()
        gc.collect()
        leaked = [obj for obj in live_records() if id(obj) not in known]
        assert leaked == []
        # The held result still reads every record back from the store.
        assert len(result.crawl.interactions) == store.count("interactions") > 0
        campaign = result.discovery.seacma_campaigns[0]
        members = list(campaign.interactions)
        assert len(members) == campaign.attack_count
        assert {(r.screenshot_hash, r.landing_e2ld) for r in members} == set(
            campaign.pairs
        )
        assert run.result is result

    def test_resumed_stages_equal_uninterrupted(self, tmp_path):
        _, pipeline = make_pipeline(11)
        straight = pipeline.run_streaming(
            JsonlStore(tmp_path / "straight", run_id="tiny-11"), with_milking=False
        )
        _, pipeline = make_pipeline(11)
        store = JsonlStore(tmp_path / "cut", run_id="tiny-11")
        batches = pipeline.start_streaming(store=store, with_milking=False).crawl_batches()
        for index, _ in enumerate(batches):
            if index == 8:
                break
        batches.close()
        store.close()
        reopened = JsonlStore.open(tmp_path / "cut")
        resumed = SeacmaPipeline(
            load_world(reopened), milking_config=MILKING
        ).resume_streaming(reopened, with_milking=False)
        assert resumed.discovery == straight.discovery
        assert resumed.attribution.keys == straight.attribution.keys
        for name in (
            "sessions",
            "publishers_visited",
            "publishers_with_ads",
            "landing_click_counts",
        ):
            assert getattr(resumed.crawl, name) == getattr(straight.crawl, name)
        assert list(resumed.crawl.interactions) == list(straight.crawl.interactions)


# ------------------------------------------------------- configuration


class TestConfigGuards:
    def test_milking_requires_residential_vantage(self, fresh_world):
        fresh_world.vantages_residential = []
        pipeline = SeacmaPipeline(fresh_world, milking_config=MILKING)
        with pytest.raises(ConfigError, match="residential"):
            pipeline.milking_tracker()

    def test_reverse_publishers_requires_publicwww(self, fresh_world):
        fresh_world.publicwww = None
        pipeline = SeacmaPipeline(fresh_world, milking_config=MILKING)
        with pytest.raises(ConfigError, match="PublicWWW"):
            pipeline.reverse_publishers(pipeline.derive_patterns())

    def test_finalize_requires_finished_crawl(self):
        _, pipeline = make_pipeline(3)
        run = pipeline.start_streaming(with_milking=False)
        batches = run.crawl_batches()
        next(batches)
        with pytest.raises(ConfigError, match="crawl has not finished"):
            run.finalize()
        batches.close()
