"""World materialization (repro.ecosystem.materialize).

Publisher pages are derived on demand into a bounded cache, which is safe
only because page derivation is pure.  This suite unit-tests that
machinery — the bounded :class:`PageCache`, the record-level skeleton
behind ``world.publishers``, the pure page-derivation function and
re-derivation after eviction — and checks that only crawled publishers
are ever materialized.  End to end (seeds × workers 1/2, streaming and
batch ``run()``), the on-demand world must leave the store files, report,
canonical sim-lane trace and metrics text recorded from an eagerly built
world (``tests/golden.py``).
"""

from __future__ import annotations

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.ecosystem.materialize import (
    DEFAULT_PAGE_CACHE_SIZE,
    MaterializationStats,
    PageCache,
    SiteSequence,
)
from repro.ecosystem.publisher import PublisherDirectory, derive_publisher_page
from repro.store import JsonlStore
from repro.telemetry import Telemetry, use

from tests.golden import (
    MILKING,
    SEEDS,
    WORKERS,
    cached_batch_report_digest,
    cached_streaming_digests,
    golden,
    micro_config,
    run_key,
)


def run_streaming(tmp_path, seed: int):
    """One traced streaming run; returns the world, result and metrics."""
    world = build_world(micro_config(seed))
    pipeline = SeacmaPipeline(world, milking_config=MILKING)
    telemetry = Telemetry(world.clock)
    with use(telemetry):
        result = pipeline.run_streaming(store=JsonlStore(tmp_path / "store"))
    return {
        "metrics": telemetry.metrics.to_prometheus(),
        "world": world,
        "result": result,
    }


# --------------------------------------------------------------- PageCache


class TestPageCache:
    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            PageCache(capacity=0)

    def test_miss_builds_then_hit_reuses(self):
        cache = PageCache(capacity=4)
        built = []

        def make(domain):
            def build():
                built.append(domain)
                return f"page:{domain}"

            return build

        assert cache.get("a.com", make("a.com")) == "page:a.com"
        assert cache.get("a.com", make("a.com")) == "page:a.com"
        assert built == ["a.com"]
        assert cache.stats.cache_misses == 1
        assert cache.stats.cache_hits == 1
        assert cache.stats.pages_built == 1
        assert cache.stats.distinct_count == 1

    def test_evicts_least_recently_used(self):
        cache = PageCache(capacity=2)
        for domain in ("a", "b"):
            cache.get(domain, lambda d=domain: f"page:{d}")
        cache.get("a", lambda: "page:a")  # refresh a; b is now LRU
        cache.get("c", lambda: "page:c")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2
        assert cache.stats.cache_evictions == 1

    def test_eviction_does_not_forget_distinct_domains(self):
        stats = MaterializationStats()
        cache = PageCache(capacity=1, stats=stats)
        for domain in ("a", "b", "c"):
            cache.get(domain, lambda d=domain: f"page:{d}")
        assert stats.distinct_count == 3
        assert stats.pages_built == 3
        assert stats.cache_evictions == 2
        assert stats.as_dict()["distinct_publishers"] == 3


# ----------------------------------------------------- skeleton & directory


class TestLazyDirectory:
    def test_publishers_sequence_is_lazy_but_equal(self):
        world = build_world(WorldConfig.tiny(seed=7))
        directory = world.publisher_directory
        records = [directory.record(domain) for domain in directory.domains()]

        def skeleton(site):
            return (
                site.domain,
                site.rank,
                site.category,
                tuple(network.spec.key for network in site.networks),
            )

        def record_skeleton(record):
            return (record.domain, record.rank, record.category, record.network_keys)

        assert isinstance(world.publishers, SiteSequence)
        assert isinstance(world.new_publishers, SiteSequence)
        n_regular = len(world.publishers)
        assert n_regular + len(world.new_publishers) == len(records)
        assert list(map(skeleton, world.publishers)) == list(
            map(record_skeleton, records[:n_regular])
        )
        assert [skeleton(site) for site in world.publishers[:3]] == list(
            map(record_skeleton, records[:3])
        )
        assert skeleton(world.new_publishers[0]) == record_skeleton(
            records[n_regular]
        )
        # Views are transient: building them materialized no page.
        assert directory.stats.pages_built == 0

    def test_rederivation_after_eviction_is_identical(self):
        seed = 7
        directory = PublisherDirectory(
            seed,
            network_servers=build_world(WorldConfig.tiny(seed=seed)).networks,
            page_cache_size=1,
        )
        world = build_world(WorldConfig.tiny(seed=seed))
        first: dict[str, str] = {}
        domains = world.publisher_directory.domains()[:5]
        for domain in domains:
            first[domain] = world.publisher_directory.source_of(domain)
        # Force churn through a capacity-1 view of the same records.
        del directory  # (constructed only to cover the ctor knob)
        small = PublisherDirectory(
            seed, network_servers=world.networks, page_cache_size=1
        )
        for domain in domains:
            small.add_record(world.publisher_directory.record(domain))
        for _ in range(2):
            for domain in domains:
                assert small.source_of(domain) == first[domain]
        assert small.stats.cache_evictions > 0

    def test_derive_publisher_page_is_pure(self):
        world = build_world(WorldConfig.tiny(seed=7))
        domain = world.publisher_directory.domains()[0]
        site = world.publisher_directory.get(domain)
        once = derive_publisher_page(site, 7).source_text()
        again = derive_publisher_page(site, 7).source_text()
        assert once == again

    def test_default_cache_bound_is_sane(self):
        assert DEFAULT_PAGE_CACHE_SIZE >= 256


# --------------------------------------------------------- end-to-end


class TestEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_streaming_run_byte_identical(self, seed, workers):
        expected = golden()["streaming"][run_key(seed, workers)]
        assert cached_streaming_digests(seed, workers) == expected

    def test_batch_report_byte_identical(self):
        expected = golden()["batch_report"]["seed7"]
        assert cached_batch_report_digest(7) == expected

    def test_materialized_gauge_counts_only_crawled_publishers(self, tmp_path):
        artifacts = run_streaming(tmp_path, 7)
        config = micro_config(7)
        population = config.n_publishers + config.resolved_new_publishers
        line = next(
            line
            for line in artifacts["metrics"].splitlines()
            if line.startswith("seacma_world_materialized_publishers ")
        )
        gauge = int(float(line.split()[-1]))
        stats = artifacts["world"].publisher_directory.stats
        crawled = set(artifacts["result"].publisher_domains)
        # Reversal and expansion answer from the record-table index, so
        # only publishers the crawl actually reaches are ever built —
        # never the whole population.
        assert stats.distinct <= crawled
        assert gauge == stats.distinct_count
        assert 0 < gauge < population
