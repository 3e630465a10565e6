"""Tests for the proactive defense feeds."""

import pytest

from repro.analysis.feeds import (
    BlacklistFeed,
    FeedEntry,
    build_domain_feed,
    build_gateway_feed,
    build_phone_feed,
    feed_vs_gsb,
)


class TestBlacklistFeed:
    def test_add_and_dedupe(self):
        feed = BlacklistFeed(name="test")
        assert feed.add(FeedEntry("a.club", 0.0, "domain"))
        assert not feed.add(FeedEntry("a.club", 9.0, "domain"))
        assert len(feed) == 1
        assert feed.values() == ["a.club"]

    def test_values_in_order(self):
        feed = BlacklistFeed(name="test")
        feed.add(FeedEntry("b.club", 1.0, "domain"))
        feed.add(FeedEntry("a.club", 2.0, "domain"))
        assert feed.values() == ["b.club", "a.club"]


class TestDomainFeed:
    def test_feed_from_milking(self, pipeline_run):
        _, _, result = pipeline_run
        feed = build_domain_feed(result.milking)
        assert len(feed) == len(result.milking.domains)
        # Sorted by discovery time.
        times = [entry.first_seen for entry in feed]
        assert times == sorted(times)
        assert all(entry.kind == "domain" for entry in feed)

    def test_feed_vs_gsb_head_start(self, pipeline_run):
        world, _, result = pipeline_run
        feed = build_domain_feed(result.milking)
        comparison = feed_vs_gsb(feed, world.gsb)
        assert comparison.feed_size == len(feed)
        # The feed's whole point: most indicators never reach GSB...
        assert comparison.exclusive_fraction > 0.6
        # ...and for those that do, the feed is days ahead.
        if comparison.mean_head_start_days is not None:
            assert comparison.mean_head_start_days > 3.0

    def test_counts_partition(self, pipeline_run):
        world, _, result = pipeline_run
        feed = build_domain_feed(result.milking)
        comparison = feed_vs_gsb(feed, world.gsb)
        assert comparison.gsb_listed_ever + comparison.only_in_feed == comparison.feed_size


class TestOtherFeeds:
    def test_phone_feed(self, pipeline_run):
        _, _, result = pipeline_run
        feed = build_phone_feed(result.milking)
        assert len(feed) == len(result.milking.phones)
        for entry in feed:
            assert entry.kind == "phone"
            assert entry.value.startswith("+1-8")

    def test_gateway_feed(self, pipeline_run):
        _, _, result = pipeline_run
        feed = build_gateway_feed(result.milking)
        assert len(feed) == len(result.milking.gateways)
        for entry in feed:
            assert entry.value.startswith("http://")

    def test_empty_comparison(self):
        from repro.ecosystem.gsb import GoogleSafeBrowsing

        comparison = feed_vs_gsb(BlacklistFeed(name="empty"), GoogleSafeBrowsing(1))
        assert comparison.feed_size == 0
        assert comparison.exclusive_fraction == 0.0
        assert comparison.mean_head_start_days is None
