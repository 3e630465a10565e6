#!/usr/bin/env python3
"""Defense-evasion study: ad blockers and IP cloaking (§3.2 / §4.4).

Part 1 reproduces the AdBlock Plus pilot: which of the 11 seed networks
would a filter list actually silence?  (Paper: only Clicksor.)

Part 2 reproduces the residential-cloaking finding: crawl the same
Propeller/Clickadu publishers from a datacenter and from a residential
laptop and compare how many SE ads each vantage is served.

Part 3 reproduces the anti-bot finding: the same publisher crawled with
a Selenium-style driver vs. the stealth DevTools client.

Usage::

    python examples/adblock_evasion_study.py
"""

from __future__ import annotations

from repro import WorldConfig, build_world
from repro.browser.useragent import CHROME_MACOS
from repro.core.crawler import crawl_session


def se_ads_in(interactions, world) -> int:
    return sum(
        1 for record in interactions
        if record.labels.get("kind") == "se-attack"
    )


def main() -> None:
    world = build_world(WorldConfig.tiny(seed=7))

    print("=== Part 1: AdBlock Plus filter-list pilot ===")
    filters = world.filter_list
    assert filters is not None
    for server in world.seed_networks:
        coverage = filters.coverage_of_network(server)
        verdict = "BLOCKED" if filters.blocks_network(server) else "evades"
        print(
            f"  {server.spec.name:<12} {len(server.code_domains):>4} serving domains, "
            f"filter coverage {coverage:5.1%}  -> {verdict}"
        )

    print("\n=== Part 2: residential vs datacenter cloaking ===")
    cloaked_sites = [
        site for site in world.publishers
        if site.uses_network("propeller") or site.uses_network("clickadu")
    ][:15]
    print(f"crawling {len(cloaked_sites)} Propeller/Clickadu publishers from both vantages")
    totals = {}
    for vantage in (world.vantage_institution, world.vantages_residential[0]):
        se_count = 0
        landing_count = 0
        for site in cloaked_sites:
            interactions = crawl_session(
                world.internet, site.url, CHROME_MACOS, vantage
            )
            landing_count += len(interactions)
            se_count += se_ads_in(interactions, world)
        totals[vantage.name] = (landing_count, se_count)
        print(
            f"  {vantage.name:<12} ({vantage.ip_class.value}): "
            f"{landing_count} ads, {se_count} led to SE attacks"
        )
    institution_se = totals["institution"][1]
    laptop_se = totals["laptop-1"][1]
    print(
        "  -> cloaking networks serve "
        + ("fewer" if institution_se < laptop_se else "as many")
        + " SE ads to non-residential space (paper: none from Propeller/Clickadu)"
    )

    print("\n=== Part 3: Selenium-style vs stealth DevTools automation ===")
    from repro.browser.devtools import DevToolsClient, SeleniumLikeDriver

    antibot_sites = [site for site in world.publishers if site.uses_network("popads")][:10]
    print(f"crawling {len(antibot_sites)} PopAds publishers (anti-bot JS) with both drivers")
    for name, factory in (
        ("selenium-like", lambda: SeleniumLikeDriver(world.internet, CHROME_MACOS, world.vantages_residential[1])),
        ("stealth devtools", lambda: DevToolsClient(world.internet, CHROME_MACOS, world.vantages_residential[1], stealth=True)),
    ):
        triggered = 0
        for site in antibot_sites:
            client = factory()
            tab = client.navigate(site.url)
            if tab.load is None:
                continue
            candidates = tab.load.candidates()
            if candidates and client.click(tab, candidates[0]).triggered_ad:
                triggered += 1
        print(f"  {name:<17}: ads triggered on {triggered}/{len(antibot_sites)} sites")


if __name__ == "__main__":
    main()
