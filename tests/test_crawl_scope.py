"""Crawl-scope lifetime (:class:`repro.net.network.CrawlScope`).

Per-domain state — ad-decision, download and fault-decision streams,
circuit breakers — lives in the scope :meth:`Internet.scoped`
makes for one crawl unit, and dies when the unit finishes.  The root
scope ``""`` (milking, pilot visits) lives as long as the internet.
"""

import dataclasses
import gc

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.clock import SimClock
from repro.net.network import CrawlScope, Internet
from repro.rng import rng_for


def live_scopes(labels):
    """Every CrawlScope still alive in this process with one of ``labels``."""
    gc.collect()
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, CrawlScope) and obj.label in labels
    ]


def fresh_draws(label, count):
    """The first ``count`` draws of a new fault-fetch stream of ``label``."""
    rng = rng_for(1, "faults", "fetch", "scope", label)
    return [rng.random() for _ in range(count)]


class TestScoped:
    def test_nested_scope_restores_outer_state(self):
        internet = Internet(SimClock())
        root = internet.scope
        root_stream = root.stream(1, "probe")
        with internet.scoped("outer.com"):
            outer = internet.scope
            assert outer is not root and outer.label == "outer.com"
            outer_stream = outer.stream(1, "faults", "fetch")
            first = outer_stream.random()
            with internet.scoped("inner.com"):
                assert internet.scope.label == "inner.com"
                inner_stream = internet.scope.stream(1, "faults", "fetch")
                assert inner_stream is not outer_stream
                assert inner_stream.random() == fresh_draws("inner.com", 1)[0]
            assert internet.scope is outer
            assert outer.stream(1, "faults", "fetch") is outer_stream
            # The outer stream continues where it stopped.
            assert [first, outer_stream.random()] == fresh_draws("outer.com", 2)
        assert internet.scope is root
        assert root.stream(1, "probe") is root_stream

    def test_finished_unit_is_dropped(self):
        internet = Internet(SimClock())
        with internet.scoped("done.com"):
            finished = internet.scope.stream(1, "faults", "fetch")
            finished.random()
        assert live_scopes({"done.com"}) == []
        with internet.scoped("done.com"):
            again = internet.scope.stream(1, "faults", "fetch")
            assert again is not finished
            assert again.random() == fresh_draws("done.com", 1)[0]

    def test_interrupted_unit_resumes_its_state(self):
        internet = Internet(SimClock())
        with pytest.raises(RuntimeError):
            with internet.scoped("crashed.com"):
                crashed = internet.scope
                stream = crashed.stream(1, "faults", "fetch")
                first = stream.random()
                raise RuntimeError("container host rebooted")
        assert internet.scope.label == ""
        with internet.scoped("crashed.com"):
            assert internet.scope is crashed
            assert crashed.stream(1, "faults", "fetch") is stream
            assert [first, stream.random()] == fresh_draws("crashed.com", 2)
        with internet.scoped("crashed.com"):
            assert internet.scope is not crashed

    def test_streams_are_seeded_by_the_scope_label(self):
        scope = CrawlScope("pub.com")
        stream = scope.stream(7, "adnet", "popcash")
        assert scope.stream(7, "adnet", "popcash") is stream
        assert scope.stream(7, "adnet", "popads") is not stream
        expected = rng_for(7, "adnet", "popcash", "scope", "pub.com").random()
        assert stream.random() == expected


class TestCrawlDropsFinishedUnits:
    @pytest.fixture(scope="class")
    def crawled(self):
        config = dataclasses.replace(WorldConfig.tiny(seed=29), fault_rate=0.05)
        world = build_world(config)
        root = world.internet.scope
        probe = root.stream(1, "probe")
        first = probe.random()
        result = SeacmaPipeline(world).run(with_milking=False)
        return world, root, (probe, first), result

    def test_faults_exercised_the_scoped_state(self, crawled):
        world, _, _, result = crawled
        stats = world.internet.fault_stats
        assert stats.faults_injected > 0
        assert stats.retries > 0
        assert result.crawl.interactions

    def test_no_finished_domain_state_is_reachable(self, crawled):
        _, _, _, result = crawled
        domains = {record.publisher_domain for record in result.crawl.interactions}
        assert domains
        assert live_scopes(domains) == []

    def test_root_scope_survives_the_crawl(self, crawled):
        world, root, (probe, first), _ = crawled
        assert world.internet.scope is root
        assert root.stream(1, "probe") is probe
        expected = rng_for(1, "probe", "scope", "")
        assert [first, probe.random()] == [expected.random(), expected.random()]
