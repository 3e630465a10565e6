"""Fault injection and resilience (:mod:`repro.faults`).

The headline property is graceful degradation: a world with default-rate
fault injection, crawled with retries enabled, must produce the *same*
measurement results as its fault-free twin — while the same world crawled
with retries disabled must visibly degrade.  The unit tests around it pin
down the pieces: backoff schedules, breaker transitions, the plan's
determinism, the browser/farm/milking integration, and checkpoint/resume.
"""

import dataclasses

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.browser.browser import Browser
from repro.browser.logging import FetchFailureEntry, TabCrashEntry
from repro.browser.useragent import CHROME_MACOS
from repro.clock import MINUTE, SimClock
from repro.core.farm import CrawlCheckpoint, CrawlerFarm
from repro.core.milking import MilkingConfig, MilkingSource, MilkingTracker
from repro.dom.nodes import div, img
from repro.dom.page import PageContent, VisualSpec
from repro.ecosystem.gsb import GoogleSafeBrowsing
from repro.ecosystem.virustotal import VirusTotal
from repro.errors import (
    DnsError,
    DnsTimeoutError,
    ReproError,
    ServerUnavailableError,
    TabCrashError,
    TransientError,
)
from repro.faults import (
    BreakerRegistry,
    BreakerState,
    CircuitBreaker,
    FaultConfig,
    FaultEvent,
    FaultKind,
    FaultPlan,
    Resilience,
    RetryPolicy,
)
from repro.net.http import HttpRequest, html_response
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import CrawlScope, Internet
from repro.net.server import FunctionServer
from repro.urlkit.url import parse_url

VP = VantagePoint("test", "73.1.2.3", IpClass.RESIDENTIAL)

MATRIX_SEED = 5
MATRIX_RATE = 0.05


def request_for(url):
    return HttpRequest(url=parse_url(url), vantage=VP, user_agent="UA")


def page_server(marker):
    return FunctionServer(lambda request, context: html_response(marker))


def make_page(title="page"):
    root = div(width=1280, height=800)
    root.append(img("big.jpg", 600, 400))
    return PageContent(
        title=title,
        document=root,
        scripts=[],
        visual=VisualSpec(template_key=f"faults/{title}"),
    )


class _ForcedFaults(FaultPlan):
    """A plan that injects one fixed event on every fetch (unit tests)."""

    def __init__(self, event: FaultEvent) -> None:
        super().__init__(FaultConfig(rate=0.0), seed=0)
        self.event = event

    def fetch_fault(self, scope):
        self.stats.injected[self.event.kind.value] += 1
        return self.event


class _AlwaysTabCrash(FaultPlan):
    """A plan whose tab processes always crash at launch (unit tests)."""

    def __init__(self) -> None:
        super().__init__(FaultConfig(rate=0.0), seed=0)

    def tab_crash(self, scope):
        self.stats.injected[FaultKind.TAB_CRASH.value] += 1
        return True


def attach_resilience(internet, policy=None):
    plan = internet.fault_plan
    stats = plan.stats if plan is not None else None
    resilience = Resilience(
        retry=policy if policy is not None else RetryPolicy(),
        clock=internet.clock,
    )
    if stats is not None:
        resilience.stats = stats
    internet.resilience = resilience
    return resilience


# ---------------------------------------------------------------- errors


class TestErrorHierarchy:
    def test_transient_subtypes(self):
        for error in (
            DnsTimeoutError("x.com", 2.0),
            ServerUnavailableError("x.com", "connect-timeout"),
            TabCrashError("tab 3"),
        ):
            assert isinstance(error, TransientError)
            assert isinstance(error, ReproError)

    def test_nxdomain_is_not_transient(self):
        assert not isinstance(DnsError("x.com"), TransientError)

    def test_messages_carry_context(self):
        assert "x.com" in str(DnsTimeoutError("x.com"))
        assert "truncated-body" in str(ServerUnavailableError("x.com", "truncated-body"))
        assert "tab 3" in str(TabCrashError("tab 3"))


# ---------------------------------------------------------------- policy


class TestRetryPolicy:
    def test_backoff_grows_exponentially_to_cap(self):
        policy = RetryPolicy()
        delays = [policy.backoff(attempt, "host.com") for attempt in range(6)]
        for earlier, later in zip(delays, delays[1:4]):
            assert later > earlier
        # Past the cap the base stops growing; jitter keeps it within 25%.
        assert all(delay <= policy.max_delay * (1 + policy.jitter) for delay in delays)
        assert delays[5] >= policy.max_delay

    def test_backoff_is_deterministic_per_labels(self):
        policy = RetryPolicy(seed=3)
        assert policy.backoff(1, "a.com") == policy.backoff(1, "a.com")
        assert policy.backoff(1, "a.com") != policy.backoff(1, "b.com")

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=4)
        assert policy.should_retry(0)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_virtual_time_budget(self):
        policy = RetryPolicy(max_total_delay=10.0)
        assert policy.should_retry(0, spent=9.9)
        assert not policy.should_retry(0, spent=10.0)

    def test_disabled_never_retries(self):
        assert not RetryPolicy.disabled().should_retry(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


# --------------------------------------------------------------- breaker


class TestCircuitBreaker:
    def test_trips_on_threshold(self):
        breaker = CircuitBreaker("a.com", failure_threshold=3)
        assert not breaker.record_failure("dns", 0.0)
        assert not breaker.record_failure("dns", 1.0)
        assert breaker.record_failure("dns", 2.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(2.0)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker("a.com", failure_threshold=3)
        breaker.record_failure("server", 0.0)
        breaker.record_failure("server", 1.0)
        breaker.record_success()
        assert not breaker.record_failure("server", 2.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_trial_closes_on_success(self):
        breaker = CircuitBreaker("a.com", failure_threshold=1, cooldown=100.0)
        breaker.record_failure("dns", 0.0)
        assert not breaker.allow(99.0)
        assert breaker.allow(100.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(101.0)

    def test_half_open_trial_reopens_on_failure(self):
        breaker = CircuitBreaker("a.com", failure_threshold=1, cooldown=100.0)
        breaker.record_failure("transient", 0.0)
        assert breaker.allow(150.0)
        assert breaker.record_failure("transient", 150.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow(200.0)

    def test_registry_caches_and_reports_open_hosts(self):
        registry = BreakerRegistry(failure_threshold=1)
        scope, other = CrawlScope("pub.com"), CrawlScope("other.com")
        breaker = registry.for_host("a.com", scope)
        assert registry.for_host("a.com", scope) is breaker
        assert registry.for_host("a.com", other) is not breaker
        breaker.record_failure("dns", 0.0)
        registry.for_host("b.com", scope)
        assert breaker.state is BreakerState.OPEN
        assert registry.for_host("b.com", scope).state is BreakerState.CLOSED
        assert other.breakers["a.com"].state is BreakerState.CLOSED


# ------------------------------------------------------------------ plan


class TestFaultPlan:
    def test_zero_rate_injects_nothing(self):
        plan = FaultPlan(FaultConfig(rate=0.0, tab_crash_rate=0.0, session_crash_rate=0.0))
        scope = CrawlScope()
        assert all(plan.fetch_fault(scope) is None for _ in range(50))
        assert not plan.tab_crash(scope)
        plan.session_crash("a.com", "chrome-macos")  # no-op, must not raise
        assert plan.stats.faults_injected == 0

    def test_same_seed_same_schedule(self):
        config = FaultConfig(rate=0.5)
        first = FaultPlan(config, seed=3)
        second = FaultPlan(config, seed=3)
        first_scope, second_scope = CrawlScope(), CrawlScope()
        assert [first.fetch_fault(first_scope) for _ in range(30)] == [
            second.fetch_fault(second_scope) for _ in range(30)
        ]

    def test_scope_schedule_ignores_other_scopes(self):
        # The shard-partition property: a scope's decisions depend only on
        # its own request order, not on what other scopes drew meanwhile.
        config = FaultConfig(rate=0.3, tab_crash_rate=0.3)

        def decisions(plan, scope, interleave=None):
            out = []
            for _ in range(40):
                if interleave is not None:
                    plan.fetch_fault(interleave)
                    plan.tab_crash(interleave)
                out.append((plan.fetch_fault(scope), plan.tab_crash(scope)))
            return out

        alone = decisions(FaultPlan(config, seed=5), CrawlScope("pub.com"))
        shared = decisions(
            FaultPlan(config, seed=5), CrawlScope("pub.com"), CrawlScope("other.com")
        )
        assert alone == shared
        assert any(event is not None for event, _ in alone)
        assert any(crashed for _, crashed in alone)

    def test_one_generator_per_scope_and_kind(self, monkeypatch):
        import repro.net.network as network_mod

        made = []
        real = network_mod.rng_for

        def counting(*labels):
            made.append(labels)
            return real(*labels)

        monkeypatch.setattr(network_mod, "rng_for", counting)
        plan = FaultPlan(FaultConfig(rate=0.05), seed=4)
        internet = Internet(SimClock(), fault_plan=plan)
        hosts = [f"h{i}.com" for i in range(50)]
        for host in hosts:
            internet.register(host, page_server(host))
        attach_resilience(internet)
        with internet.scoped("pub.com"):
            for index in range(1000):
                internet.fetch(request_for(f"http://{hosts[index % 50]}/"))
        assert plan.stats.faults_injected > 0
        assert made == [(4, "faults", "fetch", "scope", "pub.com")]

    def test_bursts_bounded_and_counted(self):
        plan = FaultPlan(FaultConfig(rate=0.9, max_burst=2), seed=1)
        scope = CrawlScope()
        events = [plan.fetch_fault(scope) for _ in range(60)]
        events = [event for event in events if event is not None]
        assert events
        for event in events:
            assert 1 <= event.burst <= 2
            if event.kind is FaultKind.SLOW_RESPONSE:
                assert event.burst == 1
        assert plan.stats.faults_injected == len(events)

    def test_session_crash_is_stateless_in_labels(self):
        plan = FaultPlan(FaultConfig(rate=0.0, session_crash_rate=0.5), seed=2)
        crashed = None
        for index in range(40):
            domain = f"pub{index}.com"
            try:
                plan.session_crash(domain, "chrome-macos")
            except TabCrashError:
                crashed = domain
                break
        assert crashed is not None
        # The same (domain, UA) draw crashes again on a fresh same-seed plan.
        twin = FaultPlan(FaultConfig(rate=0.0, session_crash_rate=0.5), seed=2)
        with pytest.raises(TabCrashError):
            twin.session_crash(crashed, "chrome-macos")

    def test_event_error_mapping(self):
        assert isinstance(
            FaultEvent(FaultKind.DNS_TIMEOUT, delay=2.0).to_error("a.com"),
            DnsTimeoutError,
        )
        assert isinstance(
            FaultEvent(FaultKind.TRUNCATED_BODY).to_error("a.com"),
            ServerUnavailableError,
        )
        assert isinstance(FaultEvent(FaultKind.TAB_CRASH).to_error("a.com"), TabCrashError)

    def test_config_validation_and_scaling(self):
        with pytest.raises(ValueError):
            FaultConfig(rate=1.0)
        with pytest.raises(ValueError):
            FaultConfig(max_burst=0)
        scaled = FaultConfig.at_rate(0.1)
        assert scaled.rate == 0.1
        assert scaled.tab_crash_rate == 0.05
        assert scaled.session_crash_rate == 0.1


# ------------------------------------------------------- fetch injection


class TestFetchInjection:
    def make_internet(self, event):
        internet = Internet(SimClock(), fault_plan=_ForcedFaults(event))
        internet.register("a.com", page_server("hello"))
        return internet

    def test_fault_raises_typed_error_without_resilience(self):
        internet = self.make_internet(FaultEvent(FaultKind.DNS_TIMEOUT, delay=2.0))
        with pytest.raises(DnsTimeoutError):
            internet.fetch(request_for("http://a.com/"))
        stats = internet.fault_stats
        assert stats.failed_fetches == 1
        assert stats.delay_seconds == 2.0

    def test_connect_timeout_maps_to_server_unavailable(self):
        internet = self.make_internet(FaultEvent(FaultKind.CONNECT_TIMEOUT, delay=1.0))
        with pytest.raises(ServerUnavailableError):
            internet.fetch(request_for("http://a.com/"))

    def test_retries_absorb_burst(self):
        internet = self.make_internet(FaultEvent(FaultKind.SERVER_5XX, burst=2))
        attach_resilience(internet)
        result = internet.fetch(request_for("http://a.com/"))
        assert result.response.body == "hello"
        assert result.retries == 2
        stats = internet.fault_stats
        assert stats.retries == 2
        assert stats.recovered_fetches == 1
        assert stats.failed_fetches == 0

    def test_disabled_policy_surfaces_the_fault(self):
        internet = self.make_internet(FaultEvent(FaultKind.SERVER_5XX, burst=1))
        attach_resilience(internet, RetryPolicy.disabled())
        with pytest.raises(ServerUnavailableError):
            internet.fetch(request_for("http://a.com/"))
        assert internet.fault_stats.failed_fetches == 1

    def test_slow_response_succeeds_with_accounted_delay(self):
        internet = self.make_internet(FaultEvent(FaultKind.SLOW_RESPONSE, delay=3.0))
        before = internet.clock.now()
        result = internet.fetch(request_for("http://a.com/"))
        assert result.response.ok
        assert result.retries == 0
        # The wait is accounted to the container, not the world clock.
        assert internet.clock.now() == before
        assert internet.fault_stats.delay_seconds == 3.0


class TestBreakerIntegration:
    def test_dead_host_trips_and_fast_fails(self):
        internet = Internet(SimClock())
        resilience = attach_resilience(internet)
        for _ in range(3):
            result = internet.fetch(request_for("http://ghost.club/"))
            assert result.dns_failure
        assert resilience.stats.breaker_trips == 1
        fetches_before = internet.fetch_count
        result = internet.fetch(request_for("http://ghost.club/"))
        # The fast-fail mirrors the DNS failure shape exactly.
        assert result.dns_failure
        assert result.response.status == 502
        assert resilience.stats.breaker_fast_fails == 1
        assert internet.fetch_count == fetches_before + 1

    def test_half_open_trial_after_cooldown(self):
        internet = Internet(SimClock())
        resilience = attach_resilience(internet)
        for _ in range(3):
            internet.fetch(request_for("http://ghost.club/"))
        internet.clock.advance(301.0)
        internet.fetch(request_for("http://ghost.club/"))  # half-open trial
        assert resilience.stats.breaker_trips == 2
        breaker = resilience.breakers.for_host("ghost.club", internet.scope)
        assert breaker.state is BreakerState.OPEN

    def test_recovered_host_closes_breaker(self):
        internet = Internet(SimClock())
        resilience = attach_resilience(internet)
        for _ in range(3):
            internet.fetch(request_for("http://late.club/"))
        internet.register("late.club", page_server("up"))
        internet.clock.advance(301.0)
        result = internet.fetch(request_for("http://late.club/"))
        assert result.response.ok
        breaker = resilience.breakers.for_host("late.club", internet.scope)
        assert breaker.state is BreakerState.CLOSED


# --------------------------------------------------------------- browser


class TestBrowserFaults:
    def make_browser(self, plan):
        internet = Internet(SimClock(), fault_plan=plan)
        internet.register("a.com", FunctionServer(lambda r, c: html_response(make_page())))
        return internet, Browser(internet, CHROME_MACOS, VP)

    def test_tab_crash_without_resilience_kills_tab(self):
        internet, browser = self.make_browser(_AlwaysTabCrash())
        tab = browser.visit("http://a.com/")
        assert not tab.loaded
        assert tab.failure == "tab-crash"
        assert len(browser.log.entries_of(TabCrashEntry)) == 1
        assert internet.fault_stats.injected[FaultKind.TAB_CRASH.value] == 1

    def test_tab_crash_with_resilience_relaunches(self):
        internet, browser = self.make_browser(_AlwaysTabCrash())
        resilience = attach_resilience(internet)
        tab = browser.visit("http://a.com/")
        assert tab.loaded
        assert tab.failure is None
        assert resilience.stats.retries == 1
        assert not browser.log.entries_of(TabCrashEntry)

    def test_exhausted_fetch_fault_marks_tab_transient(self):
        internet, browser = self.make_browser(
            _ForcedFaults(FaultEvent(FaultKind.CONNECT_TIMEOUT, burst=1, delay=1.0))
        )
        tab = browser.visit("http://a.com/")
        assert not tab.loaded
        assert tab.failure == "transient"
        entries = browser.log.entries_of(FetchFailureEntry)
        assert len(entries) == 1
        assert "a.com" in entries[0].reason

    def test_fetch_fault_absorbed_with_resilience(self):
        internet, browser = self.make_browser(
            _ForcedFaults(FaultEvent(FaultKind.CONNECT_TIMEOUT, burst=2, delay=1.0))
        )
        attach_resilience(internet)
        tab = browser.visit("http://a.com/")
        assert tab.loaded
        assert tab.failure is None
        assert not browser.log.entries_of(FetchFailureEntry)


# ------------------------------------------------------------------ farm


class TestFarmCheckpoint:
    def test_resume_matches_uninterrupted_run(self, monkeypatch):
        import repro.core.farm as farm_mod

        domains = None
        datasets = {}
        for name in ("expected", "interrupted"):
            world = build_world(WorldConfig.tiny(seed=13))
            if domains is None:
                domains = [site.domain for site in world.publishers[:4]]
            datasets[name] = (world, CrawlerFarm(world))
        expected = datasets["expected"][1].crawl(list(domains))

        farm = datasets["interrupted"][1]
        real = farm_mod.crawl_session
        calls = {"count": 0}

        def flaky(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 6:
                raise RuntimeError("container host rebooted")
            return real(*args, **kwargs)

        monkeypatch.setattr(farm_mod, "crawl_session", flaky)
        with pytest.raises(RuntimeError):
            farm.crawl(list(domains))
        checkpoint = farm.checkpoint
        assert checkpoint is not None
        assert 0 < len(checkpoint.completed_sessions) < expected.sessions

        monkeypatch.setattr(farm_mod, "crawl_session", real)
        resumed = farm.crawl(list(domains), checkpoint=checkpoint)

        def key(dataset):
            return [
                (r.publisher_domain, r.ua_name, r.landing_url, r.screenshot_hash)
                for r in dataset.interactions
            ]

        assert key(resumed) == key(expected)
        assert resumed.sessions == expected.sessions
        assert resumed.publishers_visited == expected.publishers_visited
        assert resumed.publishers_with_ads == expected.publishers_with_ads

    def test_completed_checkpoint_skips_everything(self):
        world = build_world(WorldConfig.tiny(seed=13))
        domains = [site.domain for site in world.publishers[:2]]
        farm = CrawlerFarm(world)
        dataset = farm.crawl(list(domains))
        sessions = dataset.sessions
        again = farm.crawl(list(domains), checkpoint=farm.checkpoint)
        assert again.sessions == sessions
        assert again is dataset

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finished_run_keeps_no_session_marks(self, workers):
        # Session marks exist for the in-flight domain only; a finished
        # domain is skipped through ``completed_domains``.
        pipeline = SeacmaPipeline(build_world(WorldConfig.tiny(seed=13)))
        run = pipeline.start_streaming(with_milking=False, workers=workers)
        for _ in run.crawl_batches():
            pass
        checkpoint = run.farm.checkpoint
        assert checkpoint.completed_domains
        assert checkpoint.completed_sessions == set()

    def test_checkpoint_type_defaults(self):
        from repro.core.farm import CrawlDataset

        checkpoint = CrawlCheckpoint(dataset=CrawlDataset())
        assert checkpoint.completed_sessions == set()
        assert checkpoint.laptop_index == 0


# --------------------------------------------------------------- milking


class TestMilkingReschedule:
    def make_tracker(self):
        internet = Internet(SimClock())
        attach_resilience(internet)
        tracker = MilkingTracker(
            internet, GoogleSafeBrowsing(0), VirusTotal(0), VP
        )
        return internet, tracker

    def test_failed_source_is_rescheduled_not_dropped(self):
        internet, tracker = self.make_tracker()
        source = MilkingSource(
            source_id=1,
            url="http://ghost-tds.club/track",
            ua_name=CHROME_MACOS.name,
            cluster_id=1,
            category=None,
        )
        tracker.sources.append(source)
        config = MilkingConfig(
            duration_days=0.02,
            post_lookup_days=0.01,
            final_lookup_extra_days=0.01,
            vt_rescan_days=0.01,
            interact_with_pages=False,
        )
        report = tracker.run(config)
        stats = internet.fault_stats
        assert stats.milk_reschedules >= 2
        # Retries count as extra milk sessions beyond the regular rounds.
        assert report.sessions > 2
        assert source.active
        assert source.failures > 0

    def test_retries_disabled_by_config(self):
        internet, tracker = self.make_tracker()
        source = MilkingSource(
            source_id=1,
            url="http://ghost-tds.club/track",
            ua_name=CHROME_MACOS.name,
            cluster_id=1,
            category=None,
        )
        tracker.sources.append(source)
        config = MilkingConfig(
            duration_days=0.02,
            post_lookup_days=0.01,
            final_lookup_extra_days=0.01,
            vt_rescan_days=0.01,
            interact_with_pages=False,
            retry_failed_sources=False,
        )
        tracker.run(config)
        assert internet.fault_stats.milk_reschedules == 0

    def test_retry_delay_respects_window_end(self):
        internet, tracker = self.make_tracker()
        source = MilkingSource(
            source_id=1,
            url="http://ghost-tds.club/track",
            ua_name=CHROME_MACOS.name,
            cluster_id=1,
            category=None,
        )
        tracker.sources.append(source)
        # Window shorter than the first retry delay: nothing reschedules.
        config = MilkingConfig(
            duration_days=1.0 * MINUTE / 86400.0,
            post_lookup_days=0.001,
            final_lookup_extra_days=0.001,
            vt_rescan_days=0.001,
            interact_with_pages=False,
            retry_delay_minutes=30.0,
        )
        tracker.run(config)
        assert internet.fault_stats.milk_reschedules == 0


# ---------------------------------------------------------- fault matrix


def campaign_label_set(result):
    labels = set()
    for cluster in result.discovery.seacma_campaigns:
        labels.update(
            record.labels.get("campaign")
            for record in cluster.interactions
            if record.labels.get("campaign")
        )
    return labels


def interaction_key(result):
    return [
        (r.publisher_domain, r.ua_name, r.landing_url, r.screenshot_hash, r.timestamp)
        for r in result.crawl.interactions
    ]


@pytest.fixture(scope="module")
def matrix_baseline():
    world = build_world(WorldConfig.tiny(seed=MATRIX_SEED))
    result = SeacmaPipeline(world).run(with_milking=False)
    return world, result


@pytest.fixture(scope="module")
def matrix_faulty():
    config = dataclasses.replace(
        WorldConfig.tiny(seed=MATRIX_SEED), fault_rate=MATRIX_RATE
    )
    world = build_world(config)
    result = SeacmaPipeline(world).run(with_milking=False)
    return world, result


@pytest.fixture(scope="module")
def matrix_degraded():
    config = dataclasses.replace(
        WorldConfig.tiny(seed=MATRIX_SEED), fault_rate=MATRIX_RATE
    )
    world = build_world(config)
    result = SeacmaPipeline(world, retries_enabled=False).run(with_milking=False)
    return world, result


class TestFaultMatrix:
    def test_faults_were_actually_injected_and_absorbed(self, matrix_faulty):
        _, result = matrix_faulty
        stats = result.fault_stats
        assert stats is not None
        assert stats.faults_injected > 0
        assert stats.retries > 0
        assert stats.recovered_fetches > 0
        assert stats.breaker_trips > 0
        assert stats.sessions_crashed > 0
        assert stats.sessions_resumed == stats.sessions_crashed
        assert stats.sessions_lost == 0
        assert stats.failed_fetches == 0
        assert not stats.degraded

    def test_faulty_run_with_retries_matches_fault_free(
        self, matrix_baseline, matrix_faulty
    ):
        _, baseline = matrix_baseline
        _, faulty = matrix_faulty
        assert campaign_label_set(faulty) == campaign_label_set(baseline)
        # Per-hop retries replay only the failed transport attempt, so the
        # recorded measurement is byte-identical, not merely equivalent.
        assert interaction_key(faulty) == interaction_key(baseline)

    def test_server_load_unchanged_by_injection(self, matrix_baseline, matrix_faulty):
        world_base, _ = matrix_baseline
        world_faulty, _ = matrix_faulty
        assert world_faulty.internet.fetch_count == world_base.internet.fetch_count

    def test_degraded_run_visibly_degrades(self, matrix_faulty, matrix_degraded):
        _, faulty = matrix_faulty
        _, degraded = matrix_degraded
        stats = degraded.fault_stats
        assert stats.degraded
        assert stats.failed_fetches > 0
        assert stats.sessions_lost > 0
        assert stats.retries == 0
        assert len(degraded.crawl.interactions) < len(faulty.crawl.interactions)

    def test_baseline_world_has_no_fault_machinery(self, matrix_baseline):
        world, result = matrix_baseline
        assert world.internet.fault_plan is None
        assert result.fault_stats is None

    def test_fault_health_report_renders(self, matrix_faulty):
        from repro.core import reports

        _, result = matrix_faulty
        rows = reports.fault_health(result.fault_stats)
        text = reports.render_table(rows, "FAULT HEALTH")
        assert "sessions resumed" in text
        assert "faults injected (total)" in text
        summary = result.fault_stats.summary()
        assert "faults injected" in summary
        flat = result.fault_stats.as_dict()
        assert flat["faults_injected"] == result.fault_stats.faults_injected


class TestEndToEnd:
    def test_full_pipeline_with_milking_survives_faults(self):
        config = dataclasses.replace(
            WorldConfig.tiny(seed=MATRIX_SEED), fault_rate=MATRIX_RATE
        )
        world = build_world(config)
        pipeline = SeacmaPipeline(
            world,
            milking_config=MilkingConfig(duration_days=0.25, post_lookup_days=0.25),
        )
        result = pipeline.run(with_milking=True)
        assert result.milking is not None
        assert result.milking.domains
        stats = result.fault_stats
        assert stats.faults_injected > 0
        assert stats.sessions_resumed == stats.sessions_crashed > 0
        assert not stats.degraded

    def test_cli_fault_flags(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--preset",
                "tiny",
                "--seed",
                "5",
                "--no-milking",
                "--fault-rate",
                "0.03",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults:" in out
        assert "FAULT HEALTH" in out
