"""Tests for the crawler farm (§3.2 operations / §4.1 setup)."""

import pytest

from repro import WorldConfig, build_world
from repro.browser.useragent import PROFILES
from repro.core.farm import CrawlerFarm, FarmConfig
from repro.core.crawler import CrawlerConfig


class TestGroupSplit:
    def test_cloaking_networks_go_residential(self, tiny_world):
        farm = CrawlerFarm(tiny_world)
        domains = [site.domain for site in tiny_world.publishers]
        institutional, residential = farm.split_publisher_groups(domains)
        assert set(institutional).isdisjoint(residential)
        assert len(institutional) + len(residential) == len(domains)
        for domain in residential:
            site = tiny_world.publisher_directory.get(domain)
            assert site.uses_network("propeller") or site.uses_network("clickadu")
        for domain in institutional:
            site = tiny_world.publisher_directory.get(domain)
            assert not (site.uses_network("propeller") or site.uses_network("clickadu"))

    def test_unknown_domains_default_institutional(self, tiny_world):
        farm = CrawlerFarm(tiny_world)
        institutional, residential = farm.split_publisher_groups(["stranger.example"])
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
        _, residential = CrawlerFarm(world).split_publisher_groups(
            result.publisher_domains
        )
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
        _, residential = CrawlerFarm(world).split_publisher_groups(
            [site.domain for site in world.publishers]
        )
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
    """crawl() must return the drained checkpoint's dataset, not whatever
    ``farm.checkpoint`` happens to alias at return time."""

    def test_completed_recrawl_survives_interleaved_start(self, fresh_world):
        farm = CrawlerFarm(fresh_world, FarmConfig(crawler=CrawlerConfig(max_ads=1)))
        domains = [site.domain for site in fresh_world.publishers[:4]]
        others = [site.domain for site in fresh_world.publishers[4:8]]
        dataset = farm.crawl(domains)
        checkpoint = farm.checkpoint
        # Starting another crawl re-points farm.checkpoint before the
        # completed re-crawl returns; the old code returned that
        # stranger's (empty) dataset.
        interloper = farm.crawl_incremental(others)
        again = farm.crawl(domains, checkpoint=checkpoint)
        assert again is dataset
        interloper.close()

    def test_interleaved_incremental_and_batch_crawls(self, fresh_world):
        from repro.core.farm import CrawlCheckpoint, CrawlDataset

        farm = CrawlerFarm(fresh_world, FarmConfig(crawler=CrawlerConfig(max_ads=1)))
        list_a = [site.domain for site in fresh_world.publishers[:3]]
        list_b = [site.domain for site in fresh_world.publishers[3:6]]
        checkpoint_a = CrawlCheckpoint(
            dataset=CrawlDataset(started_at=fresh_world.clock.now())
        )
        crawl_a = farm.crawl_incremental(list_a, checkpoint_a)
        next(crawl_a)  # crawl A is now in flight
        dataset_b = farm.crawl(list_b)
        for _ in crawl_a:
            pass
        domains_b = {r.publisher_domain for r in dataset_b.interactions}
        domains_a = {r.publisher_domain for r in checkpoint_a.dataset.interactions}
        assert domains_b <= set(list_b)
        assert domains_a <= set(list_a)
        assert dataset_b is not checkpoint_a.dataset
        assert checkpoint_a.dataset.publishers_visited == 3


class TestGroupSplitEdges:
    def test_empty_input_yields_empty_groups(self, tiny_world):
        assert CrawlerFarm(tiny_world).split_publisher_groups([]) == ([], [])

    def test_input_order_preserved_within_groups(self, tiny_world):
        farm = CrawlerFarm(tiny_world)
        domains = [site.domain for site in tiny_world.publishers]
        reversed_inst, reversed_res = farm.split_publisher_groups(
            list(reversed(domains))
        )
        institutional, residential = farm.split_publisher_groups(domains)
        assert reversed_inst == list(reversed(institutional))
        assert reversed_res == list(reversed(residential))

    def test_split_is_a_partition(self, tiny_world):
        farm = CrawlerFarm(tiny_world)
        domains = [site.domain for site in tiny_world.publishers]
        institutional, residential = farm.split_publisher_groups(domains)
        assert sorted(institutional + residential) == sorted(domains)


class TestResidentialCapEdges:
    def test_cap_disabled_keeps_every_residential_domain(self, fresh_world):
        # A round plan: the scheduler caps the universe once up front,
        # so per-round plans must not re-truncate their slice.
        farm = CrawlerFarm(
            fresh_world, FarmConfig(residential_visit_fraction=0.25)
        )
        domains = [site.domain for site in fresh_world.publishers]
        _, residential = farm.split_publisher_groups(domains)
        plan = farm.plan_round(domains, 0.0, 12.5)
        kept = [entry for entry in plan.entries if entry.residential]
        assert len(kept) == len(residential)
        assert plan.residential_dropped == 0

    def test_full_fraction_drops_nothing(self, fresh_world):
        farm = CrawlerFarm(
            fresh_world, FarmConfig(residential_visit_fraction=1.0)
        )
        domains = [site.domain for site in fresh_world.publishers]
        _, residential = farm.split_publisher_groups(domains)
        plan = farm.plan_crawl(domains, started_at=0.0)
        assert plan.residential_dropped == 0
        assert sum(1 for e in plan.entries if e.residential) == len(residential)

    def test_all_institutional_plan_has_no_drops(self, fresh_world):
        farm = CrawlerFarm(fresh_world)
        institutional, _ = farm.split_publisher_groups(
            [site.domain for site in fresh_world.publishers]
        )
        plan = farm.plan_crawl(institutional, started_at=0.0)
        assert plan.residential_dropped == 0
        assert not any(entry.residential for entry in plan.entries)


class TestPlanTimeStep:
    def test_pinned_step_overrides_everything(self, tiny_world):
        # A round plan runs on the step it is given, whatever the farm
        # would derive for it.
        farm = CrawlerFarm(tiny_world, FarmConfig(parallelism=8))
        domains = [site.domain for site in tiny_world.publishers]
        for count in (1, len(domains)):
            plan = farm.plan_round(domains[:count], 0.0, 12.5)
            assert plan.time_step == 12.5
            assert plan.end_time == plan.total_sessions * 12.5

    def test_parallelism_divides_session_seconds(self, tiny_world):
        config = FarmConfig(parallelism=4)
        farm = CrawlerFarm(tiny_world, config)
        expected = tiny_world.config.session_seconds / 4
        assert farm.plan_time_step(10) == expected

    def test_default_spans_the_crawl_window(self, tiny_world):
        farm = CrawlerFarm(tiny_world)
        window = tiny_world.config.crawl_window_days * 86400.0
        assert farm.plan_time_step(200) == window / 200

    def test_zero_sessions_fall_back_to_session_seconds(self, tiny_world):
        farm = CrawlerFarm(tiny_world)
        assert farm.plan_time_step(0) == tiny_world.config.session_seconds

    def test_world_session_seconds_is_the_session_budget(self, monkeypatch):
        world = build_world(WorldConfig.tiny(seed=11, session_seconds=30.0))
        assert CrawlerFarm(world, FarmConfig(parallelism=4)).plan_time_step(10) == 7.5
        farm = CrawlerFarm(world)
        assert farm.plan_time_step(0) == 30.0
        budgets = []
        monkeypatch.setattr(
            "repro.core.farm.crawl_session",
            lambda *args: budgets.append(args[-1]) or [],
        )
        farm._run_session(
            world.publishers[0].domain, PROFILES[0], world.vantage_institution
        )
        assert budgets == [30.0]

    def test_scheduler_grid_is_schedule_independent(self, tiny_world):
        """One global step for a whole budget: cutting the budget into
        rounds must not change the grid the rounds run on."""
        farm = CrawlerFarm(tiny_world)
        domains = [site.domain for site in tiny_world.publishers][:30]
        whole = farm.plan_time_step(len(domains) * len(PROFILES))
        started_at = 0.0
        for size in (1, 9, 20):
            plan = farm.plan_round(domains[:size], started_at, whole)
            assert plan.time_step == whole
            assert plan.session_time(0, 0) == started_at
            started_at = plan.end_time
        assert started_at == pytest.approx(30 * len(PROFILES) * whole)
