"""Tests for the ecosystem services: benign web, PublicWWW, WebPulse,
GSB, VirusTotal and the ad-block filter lists."""

import random
from collections import Counter

import pytest

from repro.attacks.campaign import Campaign
from repro.attacks.categories import AttackCategory
from repro.attacks.payloads import PayloadFactory
from repro.clock import DAY, HOUR
from repro.ecosystem.adblock import FilterList, build_filter_list
from repro.ecosystem.benign import BenignKind, BenignWeb
from repro.ecosystem.gsb import GoogleSafeBrowsing
from repro.ecosystem.virustotal import PRIOR_KNOWN_RATE, VirusTotal
from repro.ecosystem.webpulse import CATEGORY_WEIGHTS, WebPulse, sample_category
from repro.urlkit.url import parse_url


class TestBenignWeb:
    @pytest.fixture(scope="class")
    def benign(self):
        return BenignWeb(seed=7, n_advertisers=30, n_parking_providers=4, n_stock_sets=3)

    def test_cluster_family_counts(self, benign):
        counts = Counter(family.kind for family in benign._families)
        assert counts[BenignKind.PARKED] == 4
        assert counts[BenignKind.STOCK_ADULT] == 3
        assert counts[BenignKind.SHORTENER] == 4
        assert counts[BenignKind.ADVERTISER] == 30

    def test_parked_families_span_many_domains(self, benign):
        parked_hosts = [
            host for host in benign.all_hosts()
            if benign.kind_of_host(host) is BenignKind.PARKED
        ]
        assert len(parked_hosts) >= 4 * 5  # enough e2LDs to pass theta_c

    def test_dead_hosts_not_served(self, benign):
        for host in benign.dead_hosts():
            assert benign.kind_of_host(host) is BenignKind.DEAD
            assert host not in benign.all_hosts()

    def test_pick_url_returns_known_kinds(self, benign):
        rng = random.Random(0)
        kinds = set()
        for _ in range(300):
            url = benign.pick_url(rng, 0.0)
            kind = benign.kind_of_host(url.host)
            assert kind is not None
            kinds.add(kind)
        assert BenignKind.ADVERTISER in kinds
        assert len(kinds) >= 3

    def test_pick_url_draws_like_per_call_filtering(self, benign):
        # The kept per-kind pools draw exactly what filtering the family
        # list and sorting the dead hosts on every call drew.
        from repro.ecosystem.benign import _KIND_WEIGHTS
        from repro.rng import weighted_choice

        def reference(rng):
            kind = weighted_choice(rng, list(_KIND_WEIGHTS), list(_KIND_WEIGHTS.values()))
            if kind is BenignKind.DEAD:
                return parse_url(f"http://{rng.choice(sorted(benign.dead_hosts()))}/offer")
            members = [f for f in benign._families if f.kind is kind]
            family = rng.choice(members)
            domain = rng.choice(family.domains)
            return parse_url(f"http://{domain}{rng.choice(family.paths)}")

        fast, slow = random.Random(5), random.Random(5)
        for _ in range(500):
            assert benign.pick_url(fast, 0.0) == reference(slow)

    def test_unknown_host_is_none(self, benign):
        assert benign.kind_of_host("not-a-real-host.com") is None

    def test_same_family_pages_share_template(self, benign):
        from repro.net.http import HttpRequest
        from repro.net.ipspace import IpClass, VantagePoint
        from repro.net.server import FetchContext
        from repro.clock import SimClock
        from repro.net.network import Internet

        parked_hosts = [
            host for host in benign.all_hosts()
            if benign.kind_of_host(host) is BenignKind.PARKED
        ]
        clock = SimClock()
        ctx = FetchContext(clock=clock, internet=Internet(clock))
        vp = VantagePoint("t", "73.0.0.2", IpClass.RESIDENTIAL)
        pages = []
        for host in parked_hosts[:3]:
            request = HttpRequest(url=parse_url(f"http://{host}/"), vantage=vp, user_agent="UA")
            pages.append(benign.handle(request, ctx).body)
        # At least two of the first three parked hosts belong to ≤2 families.
        templates = {page.visual.template_key for page in pages}
        assert all(key.startswith("benign/parked/") for key in templates)


class TestWebPulse:
    def test_table2_weights_present(self):
        assert CATEGORY_WEIGHTS["Suspicious"] == pytest.approx(15.81)
        assert CATEGORY_WEIGHTS["Pornography"] == pytest.approx(13.52)
        assert len(CATEGORY_WEIGHTS) >= 20

    def test_sampling_follows_weights(self):
        rng = random.Random(0)
        counts = {}
        for _ in range(5000):
            name = sample_category(rng)
            counts[name] = counts.get(name, 0) + 1
        assert counts["Suspicious"] > counts.get("Health", 0)

    def test_learn_and_categorize(self):
        webpulse = WebPulse()
        webpulse.learn("site.com", "Games")
        assert webpulse.categorize("site.com") == "Games"
        assert webpulse.categorize("new.com") == "Uncategorized"


class TestGsb:
    def make_campaign(self, category=AttackCategory.FAKE_SOFTWARE, key="gsb-fs"):
        return Campaign(key, category, 7, domain_lifetime=(2 * HOUR, 6 * HOUR))

    def test_fresh_domain_not_listed_immediately(self):
        gsb = GoogleSafeBrowsing(seed=7)
        campaign = self.make_campaign()
        gsb.observe_attack_domain(campaign, "fresh1.club", 0.0)
        # Pre-listing aside, a freshly observed domain is almost never
        # blacklisted at activation; check a non-prelisted one.
        if gsb.listed_time("fresh1.club") != 0.0:
            assert not gsb.lookup("fresh1.club", 0.0)

    def test_detection_rates_by_category(self):
        gsb = GoogleSafeBrowsing(seed=7)
        campaigns = [self.make_campaign(key=f"fs-{i}") for i in range(40)]
        listed = 0
        total = 0
        for campaign in campaigns:
            for j in range(20):
                domain = f"d{j}.{campaign.key}.club"
                gsb.observe_attack_domain(campaign, domain, 0.0)
                total += 1
                if gsb.lookup(domain, 365 * DAY):
                    listed += 1
        # Expected ~ 0.731 * 0.21 + prelisted 0.013 ~= 0.17
        assert 0.08 < listed / total < 0.28

    def test_notifications_never_listed(self):
        gsb = GoogleSafeBrowsing(seed=7)
        campaign = self.make_campaign(AttackCategory.NOTIFICATIONS, key="gsb-notif")
        for j in range(50):
            domain = f"n{j}.club"
            gsb.observe_attack_domain(campaign, domain, 0.0)
            assert not gsb.lookup(domain, 365 * DAY)

    def test_listing_lag_exceeds_week_on_average(self):
        gsb = GoogleSafeBrowsing(seed=3)
        lags = []
        for i in range(400):
            campaign = self.make_campaign(key=f"lagfs-{i}")
            domain = f"lag{i}.club"
            gsb.observe_attack_domain(campaign, domain, 0.0)
            listed = gsb.listed_time(domain)
            if listed is not None and listed > 0:
                lags.append(listed)
        assert lags
        assert sum(lags) / len(lags) > 7 * DAY

    def test_observation_idempotent(self):
        gsb = GoogleSafeBrowsing(seed=7)
        campaign = self.make_campaign()
        gsb.observe_attack_domain(campaign, "same.club", 0.0)
        first = gsb.listed_time("same.club")
        gsb.observe_attack_domain(campaign, "same.club", 99.0)
        assert gsb.listed_time("same.club") == first

    def test_one_campaign_generator_per_campaign(self, monkeypatch):
        # The radar draw depends only on the campaign: however many of its
        # domains are judged, at most one "gsb-campaign" generator each.
        from repro.ecosystem import gsb as gsb_module

        labels = []
        real_rng_for = gsb_module.rng_for

        def counting_rng_for(seed, *parts):
            labels.append(parts[0])
            return real_rng_for(seed, *parts)

        monkeypatch.setattr(gsb_module, "rng_for", counting_rng_for)
        campaigns = [self.make_campaign(key=f"radar-{i}") for i in range(5)]
        gsb = GoogleSafeBrowsing(seed=7)
        for campaign in campaigns:
            for j in range(30):
                gsb.observe_attack_domain(campaign, f"r{j}.{campaign.key}.club", 0.0)
        assert labels.count("gsb-domain") == 150
        assert 0 < labels.count("gsb-campaign") <= len(campaigns)

    def test_unknown_domain_not_listed(self):
        gsb = GoogleSafeBrowsing(seed=7)
        assert not gsb.lookup("never-observed.com", 365 * DAY)
        assert gsb.listed_time("never-observed.com") is None

    def test_lookup_counter(self):
        gsb = GoogleSafeBrowsing(seed=7)
        gsb.lookup("a.com", 0.0)
        gsb.lookup("b.com", 0.0)
        assert gsb.lookup_count == 2


class TestVirusTotal:
    def test_unknown_hash_returns_none(self):
        vt = VirusTotal(seed=7)
        # Find a hash that is NOT pre-known (rate ~12.7%).
        factory = PayloadFactory(7, "vtc")
        for _ in range(20):
            payload = factory.build("windows")
            if vt.query(payload.sha256, 0.0) is None:
                return
        pytest.fail("every hash pre-known; prior rate broken")

    def test_prior_known_rate(self):
        vt = VirusTotal(seed=7)
        factory = PayloadFactory(7, "vtrate")
        known = sum(
            1 for _ in range(600) if vt.query(factory.build("windows").sha256, 0.0)
        )
        # Duplicated hashes (repacking) inflate slightly; allow a band.
        assert 0.05 < known / 600 < 0.30
        assert abs(PRIOR_KNOWN_RATE - 0.127) < 1e-9

    def test_submit_then_rescan_detections_grow(self):
        vt = VirusTotal(seed=7)
        factory = PayloadFactory(7, "vtgrow")
        grew = 0
        for _ in range(30):
            payload = factory.build("windows")
            initial = vt.submit(payload, now=0.0)
            final = vt.rescan(payload.sha256, now=90 * DAY)
            assert final.detections >= initial.detections
            if final.detections > initial.detections:
                grew += 1
        assert grew > 20

    def test_most_files_eventually_malicious(self):
        vt = VirusTotal(seed=7)
        factory = PayloadFactory(7, "vtmal")
        reports = []
        for _ in range(200):
            payload = factory.build("windows")
            vt.submit(payload, now=0.0)
            reports.append(vt.rescan(payload.sha256, now=90 * DAY))
        malicious = sum(1 for report in reports if report.is_malicious)
        heavy = sum(1 for report in reports if report.detections >= 15)
        assert malicious / len(reports) > 0.85
        assert 0.25 < heavy / len(reports) < 0.65

    def test_labels_only_when_detected(self):
        vt = VirusTotal(seed=7)
        factory = PayloadFactory(7, "vtlabel")
        payload = factory.build("windows")
        report = vt.rescan(payload.sha256, 90 * DAY) if vt.submit(payload, 0.0) else None
        report = vt.rescan(payload.sha256, 90 * DAY)
        if report.is_malicious:
            assert report.labels
            assert any(
                label.split(".")[0] in ("Trojan", "Adware", "PUP") for label in report.labels
            )

    def test_rescan_unknown_hash_rejected(self):
        vt = VirusTotal(seed=7)
        with pytest.raises(KeyError):
            vt.rescan("f" * 64, 0.0)


class TestAdblock:

    def test_filter_list_blocks(self):
        filters = FilterList()
        filters.add_domain("bad.com")
        assert filters.blocks("http://sub.bad.com/a")
        assert not filters.blocks("http://good.com/a")

    def test_build_filter_list_blocks_only_clicksor(self, tiny_world):
        filters = build_filter_list(list(tiny_world.networks.values()))
        blocked = [
            server.spec.name
            for server in tiny_world.seed_networks
            if filters.blocks_network(server)
        ]
        assert blocked == ["Clicksor"]

    def test_rotating_networks_partially_covered(self, tiny_world):
        filters = build_filter_list(list(tiny_world.networks.values()))
        revenuehits = tiny_world.networks["revenuehits"]
        coverage = filters.coverage_of_network(revenuehits)
        assert 0.0 < coverage < 1.0

    def test_single_static_domain_network_uncovered(self, tiny_world):
        filters = build_filter_list(list(tiny_world.networks.values()))
        popmyads = tiny_world.networks["popmyads"]
        assert not filters.blocks_network(popmyads)


class TestPublicWWWIndex:
    """The record-table index answers invariant-token queries exactly
    like a brute-force source scan (the equivalence ``search_many``'s
    docstring claims)."""

    def _scan_results(self, world, tokens):
        directory = world.publisher_directory
        servers = directory.network_servers
        # An empty server map makes every token "unindexed", forcing the
        # streaming source-scan fallback.
        directory.network_servers = lambda: {}
        try:
            return world.publicwww.search_many(tokens)
        finally:
            directory.network_servers = servers

    def test_index_matches_source_scan_for_every_network_token(self, tiny_world):
        directory = tiny_world.publisher_directory
        tokens = [
            server.spec.invariant_token
            for server in directory.network_servers().values()
        ]
        assert tokens, "world has no ad networks to index"
        indexed = tiny_world.publicwww.search_many(tokens)
        scanned = self._scan_results(tiny_world, tokens)
        assert indexed == scanned
        assert any(indexed[token] for token in tokens)

    def test_unknown_token_falls_back_to_scan(self, tiny_world):
        hits = tiny_world.publicwww.search("zz_never_in_any_source")
        assert hits == []

    def test_index_materializes_nothing(self, tiny_world):
        directory = tiny_world.publisher_directory
        token = next(iter(directory.network_servers().values())).spec.invariant_token
        built_before = directory.stats.pages_built
        tiny_world.publicwww.search(token)
        assert directory.stats.pages_built == built_before
