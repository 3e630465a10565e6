"""Tests for domain generation and the throwaway-domain pool."""

import pytest

from repro.clock import DAY, HOUR
from repro.urlkit.domains import DomainGenerator, ThrowawayDomainPool
from repro.urlkit.psl import e2ld


class TestDomainGenerator:
    def test_deterministic(self):
        a = DomainGenerator(7, "x")
        b = DomainGenerator(7, "x")
        assert [a.dga() for _ in range(5)] == [b.dga() for _ in range(5)]

    def test_labels_separate_streams(self):
        a = DomainGenerator(7, "x").dga()
        b = DomainGenerator(7, "y").dga()
        assert a != b

    def test_no_repeats(self):
        generator = DomainGenerator(1, "z")
        names = [generator.dga() for _ in range(200)]
        assert len(set(names)) == 200

    def test_dga_shape(self):
        name = DomainGenerator(3, "q").dga(tld="club")
        stem, tld = name.rsplit(".", 1)
        assert tld == "club"
        assert len(stem) >= 8

    def test_word_salad_is_valid_e2ld(self):
        name = DomainGenerator(3, "w").word_salad()
        assert e2ld(name) == name


class TestThrowawayDomainPool:
    def make_pool(self, **kwargs):
        defaults = dict(min_lifetime=1 * HOUR, max_lifetime=4 * HOUR)
        defaults.update(kwargs)
        return ThrowawayDomainPool(7, "camp", **defaults)

    def test_active_domain_stable_within_lifetime(self):
        pool = self.make_pool()
        assert pool.active_window(0.0)[0] == pool.active_window(60.0)[0]

    def test_rotation_over_time(self):
        pool = self.make_pool()
        first = pool.active_window(0.0)[0]
        later = pool.active_window(10 * DAY)[0]
        assert first != later
        assert len(pool.all_domains()) > 5

    def test_rotation_rate_matches_lifetimes(self):
        pool = self.make_pool(min_lifetime=1 * HOUR, max_lifetime=3 * HOUR)
        pool.active_window(10 * DAY)
        count = len(pool.all_domains())
        # Mean lifetime 2h -> ~120 domains over 10 days.
        assert 80 <= count <= 240

    def test_historical_queries_supported(self):
        pool = self.make_pool()
        first = pool.active_window(0.0)[0]
        pool.active_window(2 * DAY)  # advance
        assert pool.active_window(0.0)[0] == first

    def test_window_bounds_the_answer(self):
        pool = self.make_pool()
        first, start, end = pool.active_window(0.0)
        assert start == float("-inf") and end > 0.0
        assert pool.active_window(end - 1.0)[0] == first
        second, start, later = pool.active_window(end)
        assert second != first and start == end and later > end
        # A rewound query answers from history, with the old window.
        assert pool.active_window(end / 2) == (first, float("-inf"), end)
        assert pool.active_window(-5.0)[0] == first

    def test_activation_time(self):
        pool = self.make_pool()
        domain = pool.active_window(0.0)[0]
        assert pool.activation_time(domain) == 0.0
        with pytest.raises(KeyError):
            pool.activation_time("never.seen")

    def test_all_domains_in_activation_order(self):
        pool = self.make_pool()
        pool.active_window(5 * DAY)
        domains = pool.all_domains()
        times = [pool.activation_time(domain) for domain in domains]
        assert times == sorted(times)

    def test_invalid_lifetimes_rejected(self):
        with pytest.raises(ValueError):
            ThrowawayDomainPool(7, "x", min_lifetime=0, max_lifetime=10)
        with pytest.raises(ValueError):
            ThrowawayDomainPool(7, "x", min_lifetime=10, max_lifetime=5)

    def test_deterministic_across_instances(self):
        a = self.make_pool()
        b = self.make_pool()
        a.active_window(3 * DAY)
        b.active_window(3 * DAY)
        assert a.all_domains() == b.all_domains()
