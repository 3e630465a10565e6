"""The indexed DNS registry answers exactly as a per-claimant poll would.

:class:`~repro.net.dns.DnsRegistry` keeps a map from each active dynamic
host to its first claimant, valid for a window of virtual time, instead
of asking every claimant on every lookup.  These tests drive it and the
plain poll side by side over forward and rewound (``SimClock.seek``)
times, and check that the GSB decision of every attack domain exists by
the time the domain first resolves.
"""

from __future__ import annotations

import random

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.attacks.campaign import Campaign, CampaignServer
from repro.attacks.categories import AttackCategory
from repro.clock import HOUR, SimClock
from repro.core.milking import MilkingConfig
from repro.errors import DnsError
from repro.net.dns import DnsRegistry
from repro.net.http import html_response
from repro.net.server import FunctionServer


def make_claimants(seed: int) -> list:
    """Campaign servers with mixed lifetimes, a duplicate campaign (same
    domains: first claim must win) and two polled claimants."""
    categories = list(AttackCategory)
    campaigns = [
        Campaign(
            f"c{index}",
            categories[index % len(categories)],
            seed,
            domain_lifetime=(0.5 * HOUR * (index + 1), 1.5 * HOUR * (index + 1)),
        )
        for index in range(5)
    ]
    servers: list = [CampaignServer(campaign) for campaign in campaigns]
    # Claims campaign c3's domains during even hours, ahead of c3 itself.
    shadow = campaigns[3]
    servers.insert(
        2,
        FunctionServer(
            lambda request, context: html_response("shadow"),
            claims=lambda host, now: int(now // HOUR) % 2 == 0
            and host == shadow.active_attack_domain(now),
        ),
    )
    duplicate = Campaign("c0", categories[0], seed, domain_lifetime=(0.5 * HOUR, 1.5 * HOUR))
    servers.append(CampaignServer(duplicate))
    servers.append(
        FunctionServer(
            lambda request, context: html_response("fallback"),
            claims=lambda host, now: host.endswith(".fallback"),
        )
    )
    return servers


def poll(claimants: list, host: str, now: float) -> int:
    """The per-claimant poll: position of the first claimant, or -1."""
    for position, claimant in enumerate(claimants):
        if claimant.claims_host(host, now):
            return position
    return -1


def indexed(registry: DnsRegistry, claimants: list, host: str, now: float) -> int:
    try:
        return claimants.index(registry.resolve(host, now))
    except DnsError:
        return -1


@pytest.mark.parametrize("seed", range(6))
def test_index_matches_poll_forward_and_rewound(seed):
    rng = random.Random(seed)
    polled = make_claimants(seed)
    claimants = make_claimants(seed)
    registry = DnsRegistry()
    for claimant in claimants:
        registry.add_claimant(claimant)
    clock = SimClock()
    rewinds = 0
    for _ in range(300):
        if clock.now() > 0 and rng.random() < 0.2:
            clock.seek(rng.uniform(0.0, clock.now()))
            rewinds += 1
        else:
            clock.advance(rng.uniform(0.0, 2 * HOUR))
        now = clock.now()
        known = sorted(
            {
                domain
                for claimant in polled
                if isinstance(claimant, CampaignServer)
                for domain in claimant.campaign.all_attack_domains()
            }
        )
        hosts = rng.sample(known, min(6, len(known))) + ["nope.club", "x.fallback"]
        # Both sides are asked the active domains first, so each lookup
        # also covers a host that resolves right now.
        hosts[:0] = [
            claimant.campaign.active_attack_domain(now)
            for claimant in polled
            if isinstance(claimant, CampaignServer)
        ]
        for host in hosts:
            assert indexed(registry, claimants, host, now) == poll(polled, host, now), (
                host,
                now,
            )
    assert rewinds > 20


def test_first_claim_wins_between_identical_campaigns():
    claimants = make_claimants(0)
    registry = DnsRegistry()
    for claimant in claimants:
        registry.add_claimant(claimant)
    first, duplicate = claimants[0], claimants[-2]
    host = first.campaign.active_attack_domain(0.0)
    assert duplicate.campaign.active_attack_domain(0.0) == host
    assert registry.resolve(host, 0.0) is first


def _watch_resolutions(world) -> tuple[list[str], list[str]]:
    """Record every dynamic host that resolves, and those that resolve
    before GSB judged them."""
    dns = world.internet.dns
    resolve = dns.resolve
    resolved: list[str] = []
    unjudged: list[str] = []

    def checked(host: str, now: float):
        server = resolve(host, now)
        if not dns.is_registered(host):
            resolved.append(host)
            if host not in world.gsb._decisions:
                unjudged.append(host)
        return server

    dns.resolve = checked
    return resolved, unjudged


def test_gsb_judges_each_domain_before_it_resolves_in_a_crawl():
    world = build_world(WorldConfig.tiny(seed=5))
    resolved, unjudged = _watch_resolutions(world)
    SeacmaPipeline(world).run(with_milking=False)
    assert resolved
    assert unjudged == []


def test_gsb_judges_each_domain_before_it_resolves_while_milking():
    world = build_world(WorldConfig.tiny(seed=7))
    resolved, unjudged = _watch_resolutions(world)
    pipeline = SeacmaPipeline(
        world, milking_config=MilkingConfig(duration_days=0.5, post_lookup_days=0.5)
    )
    result = pipeline.run()
    assert result.milking is not None and result.milking.domains
    assert resolved
    assert unjudged == []
