"""Tests for attack categories, payloads, pages and campaign serving."""

import pytest

from repro.attacks.campaign import Campaign, CampaignServer
from repro.attacks.categories import (
    AttackCategory,
    CATEGORY_PROFILES,
    category_order,
)
from repro.attacks.pages import build_attack_page
from repro.attacks.payloads import Payload, PayloadFactory
from repro.browser.useragent import CHROME_ANDROID, CHROME_MACOS, IE_WINDOWS
from repro.clock import DAY, HOUR, SimClock
from repro.net.http import HttpRequest
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FetchContext
from repro.urlkit.url import parse_url

VP = VantagePoint("t", "73.2.2.2", IpClass.RESIDENTIAL)


def make_campaign(category=AttackCategory.FAKE_SOFTWARE, key="camp-01", seed=7):
    return Campaign(key, category, seed, domain_lifetime=(2 * HOUR, 6 * HOUR))


def context(now=0.0):
    clock = SimClock(start=now) if now else SimClock()
    return FetchContext(clock=clock, internet=Internet(clock))


class TestCategories:
    def test_all_six_present(self):
        assert len(CATEGORY_PROFILES) == 6
        assert set(CATEGORY_PROFILES) == set(AttackCategory)

    def test_order_matches_table1(self):
        assert [c.value for c in category_order()] == [
            "Fake Software",
            "Registration",
            "Lottery/Gift",
            "Chrome Notifications",
            "Scareware",
            "Technical Support",
        ]

    def test_campaign_shares_sum_to_one(self):
        total = sum(profile.campaign_share for profile in CATEGORY_PROFILES.values())
        assert total == pytest.approx(1.0)

    def test_lottery_is_mobile_only(self):
        assert CATEGORY_PROFILES[AttackCategory.LOTTERY].platforms == frozenset({"mobile"})

    def test_fake_software_dominates_campaign_share(self):
        shares = {c: p.campaign_share for c, p in CATEGORY_PROFILES.items()}
        assert max(shares, key=shares.get) is AttackCategory.FAKE_SOFTWARE

    def test_payload_categories(self):
        assert CATEGORY_PROFILES[AttackCategory.FAKE_SOFTWARE].delivers_payload
        assert CATEGORY_PROFILES[AttackCategory.SCAREWARE].delivers_payload
        assert not CATEGORY_PROFILES[AttackCategory.LOTTERY].delivers_payload

    def test_undetectable_categories(self):
        for category in (
            AttackCategory.REGISTRATION,
            AttackCategory.NOTIFICATIONS,
            AttackCategory.SCAREWARE,
        ):
            assert CATEGORY_PROFILES[category].gsb_campaign_rate == 0.0


class TestPayloads:
    def test_polymorphic_hashes(self):
        factory = PayloadFactory(7, "camp-01")
        hashes = {factory.build("windows").sha256 for _ in range(20)}
        assert len(hashes) >= 15  # mostly fresh builds

    def test_occasional_repack_reuse(self):
        factory = PayloadFactory(7, "camp-01")
        hashes = [factory.build("windows").sha256 for _ in range(30)]
        assert len(set(hashes)) < 30  # some hash reuse

    def test_platform_kinds(self):
        factory = PayloadFactory(7, "camp-02")
        assert factory.build("windows").kind == "pe"
        assert factory.build("macos").kind == "dmg"
        assert factory.build("mobile").kind == "pe"

    def test_family_stable_per_campaign(self):
        factory = PayloadFactory(7, "camp-03")
        families = {factory.build("windows").family for _ in range(10)}
        assert len(families) == 1

    def test_invalid_hash_rejected(self):
        with pytest.raises(ValueError):
            Payload(filename="x.exe", sha256="abc", kind="pe", family="f", size_bytes=1)

    def test_deterministic(self):
        a = PayloadFactory(7, "camp-04").build("windows")
        b = PayloadFactory(7, "camp-04").build("windows")
        assert a == b


class TestAttackPages:
    def page_for(self, category):
        campaign = make_campaign(category=category, key=f"{category.name.lower()}-t")
        return campaign, build_attack_page(campaign, "evil1.club")

    def test_deterministic_per_domain(self):
        campaign = make_campaign()
        a = build_attack_page(campaign, "evil1.club")
        b = build_attack_page(campaign, "evil1.club")
        assert a.visual == b.visual

    def test_domains_share_template(self):
        campaign = make_campaign()
        a = build_attack_page(campaign, "evil1.club")
        b = build_attack_page(campaign, "evil2.club")
        assert a.visual.template_key == b.visual.template_key
        assert a.visual.variant != b.visual.variant

    def test_fake_software_has_download_listener(self):
        from repro.js.api import AddListener, TriggerDownload

        _, page = self.page_for(AttackCategory.FAKE_SOFTWARE)
        ops = page.scripts[0].ops
        listeners = [op for op in ops if isinstance(op, AddListener)]
        assert any(
            isinstance(handler_op, TriggerDownload)
            for listener in listeners
            for handler_op in listener.handler
        )

    def test_tech_support_embeds_phone(self):
        campaign, page = self.page_for(AttackCategory.TECH_SUPPORT)
        assert campaign.phone_number is not None
        assert campaign.phone_number in page.source_text()

    def test_notifications_prompt_on_load(self):
        from repro.js.api import RequestNotificationPermission

        _, page = self.page_for(AttackCategory.NOTIFICATIONS)
        assert any(
            isinstance(op, RequestNotificationPermission) for op in page.scripts[0].ops
        )

    def test_registration_forwards_on_click_not_on_load(self):
        from repro.js.api import AddListener, Navigate, SetTimeout

        campaign, page = self.page_for(AttackCategory.REGISTRATION)
        ops = page.scripts[0].ops
        assert not any(isinstance(op, SetTimeout) for op in ops)
        assert any(isinstance(op, AddListener) for op in ops)
        assert campaign.customer_url is not None

    def test_locking_categories_register_nag(self):
        from repro.js.api import OnBeforeUnload

        _, page = self.page_for(AttackCategory.SCAREWARE)
        assert any(isinstance(op, OnBeforeUnload) for op in page.scripts[0].ops)

    def test_mobile_campaign_page_is_phone_sized(self):
        _, page = self.page_for(AttackCategory.LOTTERY)
        assert page.document.width < 500

    def test_labels_carry_ground_truth(self):
        campaign, page = self.page_for(AttackCategory.FAKE_SOFTWARE)
        assert page.labels["kind"] == "se-attack"
        assert page.labels["category"] == "Fake Software"


class TestCampaign:
    def test_domain_rotation(self):
        campaign = make_campaign()
        first = campaign.active_attack_domain(0.0)
        later = campaign.active_attack_domain(3 * DAY)
        assert first != later
        assert len(campaign.all_attack_domains()) > 5

    def test_attack_url_pattern_stable(self):
        campaign = make_campaign()
        a = campaign.attack_url(0.0)
        b = campaign.attack_url(3 * DAY)
        assert a.host != b.host
        assert a.path == b.path  # "same URL pattern" (§3.5)

    def test_entry_url_is_stable_tds(self):
        campaign = make_campaign()
        assert campaign.entry_url(0.0) == campaign.entry_url(10 * DAY)
        assert campaign.entry_url(0.0).host == campaign.tds_domain

    def test_new_domain_hook_fires(self):
        campaign = make_campaign()
        seen = []
        campaign.set_new_domain_hook(lambda key, domain, t: seen.append((key, domain, t)))
        campaign.active_attack_domain(2 * DAY)
        assert seen
        assert all(key == campaign.key for key, _, _ in seen)
        times = [t for _, _, t in seen]
        assert times == sorted(times)

    def test_only_tech_support_has_phone(self):
        assert make_campaign(AttackCategory.TECH_SUPPORT, key="ts").phone_number
        assert make_campaign(AttackCategory.FAKE_SOFTWARE, key="fs").phone_number is None

    def test_payload_factory_only_for_download_categories(self):
        assert make_campaign(AttackCategory.FAKE_SOFTWARE, key="fs2").payload_factory
        assert make_campaign(AttackCategory.LOTTERY, key="lot").payload_factory is None

    def test_landing_page_cached(self):
        campaign = make_campaign()
        assert campaign.landing_page("x.club") is campaign.landing_page("x.club")


class TestCampaignServer:
    def make_pair(self, category=AttackCategory.FAKE_SOFTWARE):
        campaign = make_campaign(category=category, key=f"{category.name.lower()}-srv")
        return campaign, CampaignServer(campaign)

    def test_claims_only_active_domain(self):
        campaign, server = self.make_pair()
        active = campaign.active_attack_domain(0.0)
        assert server.claims_host(active, 0.0)
        assert not server.claims_host("random.club", 0.0)

    def test_retired_domain_not_claimed(self):
        campaign, server = self.make_pair()
        old = campaign.active_attack_domain(0.0)
        campaign.active_attack_domain(5 * DAY)
        assert not server.claims_host(old, 5 * DAY)

    def test_tds_redirects_to_current_attack_url(self):
        campaign, server = self.make_pair()
        request = HttpRequest(
            url=parse_url(f"http://{campaign.tds_domain}/go?cid=x"),
            vantage=VP,
            user_agent=CHROME_MACOS.ua_string,
        )
        response = server.handle(request, context())
        assert response.is_redirect
        assert response.location.host == campaign.active_attack_domain(0.0)

    def test_attack_page_served(self):
        campaign, server = self.make_pair()
        url = campaign.attack_url(0.0)
        request = HttpRequest(url=url, vantage=VP, user_agent=CHROME_MACOS.ua_string)
        response = server.handle(request, context())
        assert response.ok
        assert response.body.labels["kind"] == "se-attack"

    def test_download_endpoint(self):
        campaign, server = self.make_pair()
        domain = campaign.active_attack_domain(0.0)
        request = HttpRequest(
            url=parse_url(f"http://{domain}{campaign.download_path}"),
            vantage=VP,
            user_agent=IE_WINDOWS.ua_string,
        )
        # Downloads are probabilistic; over many attempts (one crawl
        # scope's stream) both outcomes occur.
        ctx = context()
        outcomes = {server.handle(request, ctx).is_download for _ in range(100)}
        assert outcomes == {True, False}

    def test_download_404_for_non_payload_category(self):
        campaign, server = self.make_pair(AttackCategory.LOTTERY)
        domain = campaign.active_attack_domain(0.0)
        request = HttpRequest(
            url=parse_url(f"http://{domain}{campaign.download_path}"),
            vantage=VP,
            user_agent=CHROME_ANDROID.ua_string,
        )
        assert server.handle(request, context()).status == 404

    def test_unknown_path_404(self):
        campaign, server = self.make_pair()
        domain = campaign.active_attack_domain(0.0)
        request = HttpRequest(
            url=parse_url(f"http://{domain}/wrong-path"),
            vantage=VP,
            user_agent=CHROME_MACOS.ua_string,
        )
        assert server.handle(request, context()).status == 404


class TestVisualDrift:
    """Campaign creatives drift slowly through time (§1 tracking)."""

    def test_revision_boundaries(self):
        campaign = make_campaign(key="drift-1")
        period = campaign.VISUAL_REVISION_PERIOD
        assert campaign.visual_revision(0.0) == 0
        assert campaign.visual_revision(period - 1) == 0
        assert campaign.visual_revision(period) == 1

    def test_pages_stable_within_revision(self):
        campaign = make_campaign(key="drift-2")
        a = campaign.landing_page("x.club", now=0.0)
        b = campaign.landing_page("x.club", now=campaign.VISUAL_REVISION_PERIOD - 10)
        assert a is b

    def test_pages_drift_across_revisions(self):
        campaign = make_campaign(key="drift-3")
        a = campaign.landing_page("x.club", now=0.0)
        b = campaign.landing_page("x.club", now=campaign.VISUAL_REVISION_PERIOD + 10)
        assert a is not b
        assert a.visual.variant != b.visual.variant
        assert a.visual.template_key == b.visual.template_key

    def test_drift_stays_inside_perceptual_cluster(self):
        from repro.imaging.dhash import dhash128
        from repro.imaging.image import render_visual

        campaign = make_campaign(key="drift-4")
        hashes = [
            dhash128(
                render_visual(
                    campaign.landing_page(
                        "x.club", now=r * campaign.VISUAL_REVISION_PERIOD
                    ).visual
                )
            )
            for r in range(4)
        ]
        from repro.imaging.distance import hamming

        for later in hashes[1:]:
            assert hamming(hashes[0], later) <= 12  # within eps=0.1
