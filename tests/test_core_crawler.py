"""Tests for the per-site crawl session (§3.2)."""

import pytest

from repro.browser.useragent import CHROME_ANDROID, CHROME_MACOS
from repro.core.crawler import AdInteraction, CrawlerConfig, crawl_session
from repro.urlkit.psl import e2ld


@pytest.fixture(scope="module")
def crawled(tiny_world):
    """Crawl a handful of publishers once for the whole module."""
    results = {}
    for site in tiny_world.publishers[:12]:
        results[site.domain] = crawl_session(
            tiny_world.internet,
            site.url,
            CHROME_MACOS,
            tiny_world.vantage_institution,
        )
    return results


class TestCrawlSession:
    def test_finds_interactions_somewhere(self, crawled):
        assert any(interactions for interactions in crawled.values())

    def test_interaction_fields_populated(self, crawled):
        for interactions in crawled.values():
            for record in interactions:
                assert isinstance(record, AdInteraction)
                assert record.publisher_domain
                assert record.ua_name == CHROME_MACOS.name
                assert record.chain, "every ad has a loading chain"
                if not record.load_failed:
                    assert record.landing_host
                    assert record.landing_e2ld == e2ld(record.landing_host)
                    assert record.screenshot_hash >= 0

    def test_chain_starts_with_window_open(self, crawled):
        chains = [r.chain for records in crawled.values() for r in records if r.chain]
        assert chains
        for chain in chains:
            assert chain[0].cause in ("window-open", "initial", "js-location")

    def test_popup_chain_has_provenance(self, crawled):
        records = [r for records in crawled.values() for r in records]
        with_provenance = [
            r for r in records if any(node.source_url for node in r.chain)
        ]
        assert with_provenance, "snippet provenance must be captured"

    def test_session_seconds_bounds_the_clicks(self, tiny_world, monkeypatch):
        # The deadline is checked before each new candidate element, and
        # each click costs 2 s of think time: a 1 s budget clicks one
        # candidate only (at most REPEAT_CLICKS times).
        from repro.browser.browser import Browser
        from repro.core.crawler import REPEAT_CLICKS

        clicks = []
        click = Browser.click
        monkeypatch.setattr(
            Browser, "click", lambda self, *args: clicks.append(1) or click(self, *args)
        )

        def most_clicks(session_seconds):
            most = 0
            for site in tiny_world.publishers[:12]:
                clicks.clear()
                crawl_session(
                    tiny_world.internet, site.url, CHROME_MACOS,
                    tiny_world.vantage_institution, session_seconds=session_seconds,
                )
                most = max(most, len(clicks))
            return most

        assert most_clicks(1.0) <= REPEAT_CLICKS
        assert most_clicks(120.0) > REPEAT_CLICKS

    def test_max_ads_respected(self, tiny_world):
        config = CrawlerConfig(max_ads=1)
        for site in tiny_world.publishers[:8]:
            interactions = crawl_session(
                tiny_world.internet, site.url, CHROME_MACOS,
                tiny_world.vantage_institution, config,
            )
            assert len(interactions) <= 1

    def test_dead_publisher_yields_nothing(self, tiny_world):
        interactions = crawl_session(
            tiny_world.internet,
            "http://no-such-publisher.example/",
            CHROME_MACOS,
            tiny_world.vantage_institution,
        )
        assert interactions == []

    def test_mobile_sessions_work(self, tiny_world):
        records = []
        for site in tiny_world.publishers[:10]:
            records.extend(
                crawl_session(
                    tiny_world.internet, site.url, CHROME_ANDROID,
                    tiny_world.vantage_institution,
                )
            )
        assert all(record.ua_name == "chrome65-android" for record in records)

    def test_labels_carry_ground_truth_only(self, crawled):
        # labels exist for evaluation; landing pages know their kind.
        labelled = [
            r for records in crawled.values() for r in records
            if not r.load_failed and r.labels
        ]
        for record in labelled:
            assert "kind" in record.labels
