#!/usr/bin/env python3
"""Investigate a single ad-publishing site, Figure 1 / Figure 3 style.

Walks one publisher site exactly like the paper's §2 example: load the
page, click where a user would, watch a transparent/document ad hijack
the click into a popup, follow the redirect chain to the SE attack page,
then reconstruct the backtracking graph and extract the campaign's
milkable URL.

Usage::

    python examples/streaming_site_investigation.py [seed]
"""

from __future__ import annotations

import sys

from repro import WorldConfig, build_world
from repro.browser.devtools import DevToolsClient
from repro.browser.useragent import CHROME_MACOS
from repro.core.backtrack import backtracking_graph, milkable_candidates
from repro.core.crawler import crawl_session
from repro.imaging.dhash import dhash_hex


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    world = build_world(WorldConfig.tiny(seed=seed))

    # Pick a "streaming-like" publisher that stacks several ad networks.
    site = max(world.publishers, key=lambda s: len(s.networks))
    print(f"Target publisher: http://{site.domain}/  (rank {site.rank}, category {site.category!r})")
    print(f"Embedded ad networks: {', '.join(site.network_names())}")

    print("\n--- Interactive walk-through (stealth DevTools client) ---")
    client = DevToolsClient(
        world.internet, CHROME_MACOS, world.vantages_residential[0], stealth=True
    )
    tab = client.navigate(site.url)
    load = tab.load
    assert load is not None
    if load.overlays():
        print("A transparent full-page overlay is armed: ANY click will be hijacked.")
    candidates = load.candidates()
    print(f"{len(candidates)} clickable elements; clicking the largest ...")
    outcome = client.click(tab, candidates[0])
    for new_tab in outcome.new_tabs:
        print(f"  -> popup opened: {new_tab.current_url}")
        kind = world.kind_of_host(new_tab.current_url.host)
        print(f"     ground truth: {kind}")

    print("\n--- Systematic crawl session on the same site ---")
    interactions = crawl_session(
        world.internet, site.url, CHROME_MACOS, world.vantages_residential[0]
    )
    print(f"{len(interactions)} ads triggered")
    for index, record in enumerate(interactions):
        print(f"\nAd #{index + 1}: landed on {record.landing_url}")
        print(f"  screenshot dhash: {dhash_hex(record.screenshot_hash)}")
        print("  loading chain:")
        for node in record.chain:
            source = f"  (by {node.source_url})" if node.source_url else ""
            print(f"    [{node.cause}] {node.url}{source}")
        graph = backtracking_graph(record)
        print(f"  backtracking graph: {len(graph.nodes)} URLs, {len(graph.edges)} edges")
        for candidate in milkable_candidates(record):
            print(f"  candidate milkable URL: {candidate}")


if __name__ == "__main__":
    main()
