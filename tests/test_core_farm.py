"""Tests for the crawler farm (§3.2 operations / §4.1 setup)."""

import pytest

from repro import WorldConfig, build_world
from repro.browser.useragent import PROFILES
from repro.core.farm import CrawlDataset, CrawlerFarm, FarmConfig
from repro.core.crawler import CrawlerConfig


def split_groups(world, domains):
    """(institutional, residential) domains as the uncapped plan orders them."""
    farm = CrawlerFarm(world, FarmConfig(residential_visit_fraction=1.0))
    entries = farm.plan_crawl(domains, started_at=0.0).entries
    return (
        [entry.domain for entry in entries if not entry.residential],
        [entry.domain for entry in entries if entry.residential],
    )


class TestGroupSplit:
    def test_cloaking_networks_go_residential(self, tiny_world):
        domains = [site.domain for site in tiny_world.publishers]
        institutional, residential = split_groups(tiny_world, domains)
        assert set(institutional).isdisjoint(residential)
        assert len(institutional) + len(residential) == len(domains)
        for domain in residential:
            site = tiny_world.publisher_directory.get(domain)
            assert site.uses_network("propeller") or site.uses_network("clickadu")
        for domain in institutional:
            site = tiny_world.publisher_directory.get(domain)
            assert not (site.uses_network("propeller") or site.uses_network("clickadu"))

    def test_unknown_domains_default_institutional(self, tiny_world):
        institutional, residential = split_groups(tiny_world, ["stranger.example"])
        assert institutional == ["stranger.example"]
        assert residential == []


class TestCrawl:
    def test_dataset_bookkeeping(self, pipeline_run):
        _, _, result = pipeline_run
        dataset = result.crawl
        # 4 UA profiles per visited publisher.
        assert dataset.sessions == dataset.publishers_visited * 4
        assert dataset.publishers_visited == (
            dataset.publishers_institutional + dataset.publishers_residential
        )
        assert dataset.publishers_with_ads
        assert len(dataset.publishers_with_ads) <= dataset.publishers_visited

    def test_crawl_spans_configured_window(self, pipeline_run):
        world, _, result = pipeline_run
        dataset = result.crawl
        window = world.config.crawl_window_days * 86400.0
        # Per-click think time adds a little on top of the farm pacing.
        assert window * 0.8 <= dataset.duration <= window * 2.0

    def test_residential_fraction_cap(self, pipeline_run):
        world, _, result = pipeline_run
        dataset = result.crawl
        # §4.1: only a fraction of the residential group is crawled.
        _, residential = split_groups(world, result.publisher_domains)
        assert dataset.publishers_residential <= len(residential)

    def test_interactions_from_both_groups(self, pipeline_run):
        _, _, result = pipeline_run
        vantages = {record.vantage_name for record in result.crawl.interactions}
        assert "institution" in vantages
        assert any(name.startswith("laptop-") for name in vantages)

    def test_cloaked_networks_only_serve_se_to_residential(self, pipeline_run):
        world, _, result = pipeline_run
        for record in result.crawl.interactions:
            if record.labels.get("kind") != "se-attack":
                continue
            chain_text = " ".join(node.url for node in record.chain)
            for key in ("propeller", "clickadu"):
                token = world.networks[key].spec.invariant_token
                if f"/{token}/" in chain_text:
                    assert record.vantage_name.startswith("laptop-"), (
                        "cloaking network served an SE ad to a datacenter vantage"
                    )

    def test_landing_click_costs_accumulate(self, pipeline_run):
        _, _, result = pipeline_run
        counts = result.crawl.landing_click_counts
        assert sum(counts.values()) == len(
            [r for r in result.crawl.interactions if r.landing_e2ld]
        )

    def test_all_four_profiles_used(self, pipeline_run):
        _, _, result = pipeline_run
        names = {record.ua_name for record in result.crawl.interactions}
        assert len(names) >= 3  # all four modulo sampling noise

    def test_farm_config_parallelism_controls_pacing(self, fresh_world):
        farm = CrawlerFarm(
            fresh_world,
            FarmConfig(parallelism=100, crawler=CrawlerConfig(max_ads=1)),
        )
        domains = [site.domain for site in fresh_world.publishers[:10]]
        dataset = farm.crawl(domains)
        # 40 sessions at 120s/100 each, plus click think-time.
        assert dataset.duration < 600.0


class TestResidentialCap:
    """§4.1 visit-fraction cap: small groups must never be dropped whole."""

    def _residential_domains(self, world, count):
        _, residential = split_groups(world, [site.domain for site in world.publishers])
        assert len(residential) >= count
        return residential[:count]

    def test_small_group_keeps_at_least_one_domain(self, fresh_world):
        # int(3 * 0.25) == 0 used to floor the cap to zero, silently
        # dropping every residential domain of a small group.
        farm = CrawlerFarm(
            fresh_world, FarmConfig(residential_visit_fraction=0.25)
        )
        domains = self._residential_domains(fresh_world, 3)
        plan = farm.plan_crawl(domains, started_at=0.0)
        residential_entries = [e for e in plan.entries if e.residential]
        assert len(residential_entries) == 1
        assert plan.residential_dropped == 2

    def test_dropped_count_reaches_crawl_stats(self, fresh_world):
        farm = CrawlerFarm(
            fresh_world,
            FarmConfig(
                residential_visit_fraction=0.25,
                crawler=CrawlerConfig(max_ads=1),
            ),
        )
        domains = self._residential_domains(fresh_world, 3)
        dataset = farm.crawl(domains)
        assert dataset.publishers_residential == 1
        assert dataset.residential_dropped == 2

    def test_zero_fraction_still_drops_everything(self, fresh_world):
        farm = CrawlerFarm(fresh_world, FarmConfig(residential_visit_fraction=0.0))
        domains = self._residential_domains(fresh_world, 3)
        plan = farm.plan_crawl(domains, started_at=0.0)
        assert not any(entry.residential for entry in plan.entries)
        assert plan.residential_dropped == 3


class TestInterleavedCrawls:
    """A run writes only the dataset it is handed: the farm itself holds
    no crawl progress for interleaved runs to alias."""

    def test_completed_recrawl_survives_interleaved_start(self, fresh_world):
        farm = CrawlerFarm(fresh_world, FarmConfig(crawler=CrawlerConfig(max_ads=1)))
        domains = [site.domain for site in fresh_world.publishers[:4]]
        others = [site.domain for site in fresh_world.publishers[4:8]]
        dataset = CrawlDataset(started_at=fresh_world.clock.now())
        plan = farm.plan_crawl(domains, dataset.started_at)
        for _ in farm.run_plan(plan, dataset):
            pass
        visited = dataset.publishers_visited
        other = CrawlDataset(started_at=fresh_world.clock.now())
        interloper = farm.run_plan(
            farm.plan_crawl(others, other.started_at), other
        )
        next(interloper)
        # The finished run, started again while another is in flight,
        # yields nothing and leaves both datasets as they were.
        assert list(farm.run_plan(plan, dataset)) == []
        assert dataset.publishers_visited == visited
        assert other.publishers_visited == 1
        interloper.close()

    def test_interleaved_incremental_and_batch_crawls(self, fresh_world):
        farm = CrawlerFarm(fresh_world, FarmConfig(crawler=CrawlerConfig(max_ads=1)))
        list_a = [site.domain for site in fresh_world.publishers[:3]]
        list_b = [site.domain for site in fresh_world.publishers[3:6]]
        dataset_a = CrawlDataset(started_at=fresh_world.clock.now())
        plan_a = farm.plan_crawl(list_a, dataset_a.started_at)
        crawl_a = farm.run_plan(plan_a, dataset_a)
        batches_a = [next(crawl_a)]  # crawl A is now in flight
        dataset_b = CrawlDataset(started_at=fresh_world.clock.now())
        plan_b = farm.plan_crawl(list_b, dataset_b.started_at)
        batches_b = list(farm.run_plan(plan_b, dataset_b))
        batches_a.extend(crawl_a)
        records_a = [r for batch in batches_a for r in batch.interactions]
        records_b = [r for batch in batches_b for r in batch.interactions]
        assert {r.publisher_domain for r in records_a} <= set(list_a)
        assert {r.publisher_domain for r in records_b} <= set(list_b)
        for plan, dataset in ((plan_a, dataset_a), (plan_b, dataset_b)):
            planned = {entry.domain for entry in plan.entries}
            assert dataset.completed_domains == planned
            assert dataset.publishers_visited == len(planned)
        assert dataset_a.publishers_visited == 3


class TestGroupSplitEdges:
    def test_empty_input_yields_empty_groups(self, tiny_world):
        assert split_groups(tiny_world, []) == ([], [])

    def test_input_order_preserved_within_groups(self, tiny_world):
        domains = [site.domain for site in tiny_world.publishers]
        reversed_inst, reversed_res = split_groups(tiny_world, list(reversed(domains)))
        institutional, residential = split_groups(tiny_world, domains)
        assert reversed_inst == list(reversed(institutional))
        assert reversed_res == list(reversed(residential))

    def test_split_is_a_partition(self, tiny_world):
        domains = [site.domain for site in tiny_world.publishers]
        institutional, residential = split_groups(tiny_world, domains)
        assert sorted(institutional + residential) == sorted(domains)


class TestResidentialCapEdges:
    def test_full_fraction_drops_nothing(self, fresh_world):
        farm = CrawlerFarm(
            fresh_world, FarmConfig(residential_visit_fraction=1.0)
        )
        sites = fresh_world.publishers
        residential = [
            site.domain
            for site in sites
            if site.uses_network("propeller") or site.uses_network("clickadu")
        ]
        plan = farm.plan_crawl([site.domain for site in sites], started_at=0.0)
        assert plan.residential_dropped == 0
        kept = [entry for entry in plan.entries if entry.residential]
        assert [entry.domain for entry in kept] == residential
        # Each residential entry's laptop slots follow the ones before it.
        assert [entry.residential_base for entry in kept] == [
            index * len(PROFILES) for index in range(len(kept))
        ]

    def test_all_institutional_plan_has_no_drops(self, fresh_world):
        farm = CrawlerFarm(fresh_world)
        institutional, _ = split_groups(
            fresh_world, [site.domain for site in fresh_world.publishers]
        )
        plan = farm.plan_crawl(institutional, started_at=0.0)
        assert plan.residential_dropped == 0
        assert not any(entry.residential for entry in plan.entries)


class TestPlanTimeStep:
    def test_parallelism_divides_session_seconds(self, tiny_world):
        config = FarmConfig(parallelism=4)
        farm = CrawlerFarm(tiny_world, config)
        expected = tiny_world.config.session_seconds / 4
        domains = [site.domain for site in tiny_world.publishers]
        for count in (1, len(domains)):
            assert farm.plan_crawl(domains[:count], 0.0).time_step == expected

    def test_default_spans_the_crawl_window(self, tiny_world):
        farm = CrawlerFarm(tiny_world)
        window = tiny_world.config.crawl_window_days * 86400.0
        plan = farm.plan_crawl([site.domain for site in tiny_world.publishers], 0.0)
        assert plan.time_step == window / plan.total_sessions
        assert plan.end_time == pytest.approx(window)

    def test_zero_sessions_fall_back_to_session_seconds(self, tiny_world):
        farm = CrawlerFarm(tiny_world)
        plan = farm.plan_crawl([], 0.0)
        assert plan.time_step == tiny_world.config.session_seconds

    def test_world_session_seconds_is_the_session_budget(self, monkeypatch):
        world = build_world(WorldConfig.tiny(seed=11, session_seconds=30.0))
        domains = [site.domain for site in world.publishers]
        assert CrawlerFarm(world, FarmConfig(parallelism=4)).plan_crawl(
            domains, 0.0
        ).time_step == 7.5
        farm = CrawlerFarm(world)
        assert farm.plan_crawl([], 0.0).time_step == 30.0
        budgets = []
        monkeypatch.setattr(
            "repro.core.farm.crawl_session",
            lambda *args: budgets.append(args[-1]) or [],
        )
        farm._run_session(
            world.publishers[0].domain, PROFILES[0], world.vantage_institution
        )
        assert budgets == [30.0]
