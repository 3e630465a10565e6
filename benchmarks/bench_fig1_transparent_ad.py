"""Figure 1 — the transparent-ad click hijack.

Benchmarks one full crawl session against a publisher whose page arms a
transparent full-page overlay, and verifies the Figure 1 behaviour: a
click aimed at ordinary content opens a third-party tab that lands on SE
attack content.
"""

from repro.browser.devtools import DevToolsClient
from repro.browser.useragent import CHROME_MACOS
from repro.core.crawler import crawl_session


def find_overlay_publisher(world):
    """A publisher whose first load injects a transparent overlay."""
    client = DevToolsClient(
        world.internet, CHROME_MACOS, world.vantages_residential[0], stealth=True
    )
    for site in world.publishers:
        tab = client.navigate(site.url)
        if tab.load is not None and tab.load.overlays():
            return site
    raise AssertionError("no transparent-ad publisher in the world")


def test_fig1_transparent_ad(benchmark, bench_world, save_artifact):
    site = find_overlay_publisher(bench_world)

    def session():
        return crawl_session(
            bench_world.internet,
            site.url,
            CHROME_MACOS,
            bench_world.vantages_residential[0],
        )

    interactions = benchmark.pedantic(session, rounds=3, iterations=1)
    assert interactions, "the transparent ad must trigger"
    lines = [f"publisher: {site.url} (networks: {', '.join(site.network_names())})"]
    for record in interactions:
        lines.append(f"  click -> popup -> {record.landing_url}")
        for node in record.chain:
            lines.append(f"    [{node.cause}] {node.url}")
    save_artifact("fig1_transparent_ad", "\n".join(lines))

    # The popup is third-party (not the publisher's own domain).
    for record in interactions:
        assert record.landing_host != site.domain

    # And the overlay really is what intercepts the click.
    client = DevToolsClient(
        bench_world.internet, CHROME_MACOS, bench_world.vantages_residential[0]
    )
    tab = client.navigate(site.url)
    candidates = tab.load.candidates()
    outcome = client.click(tab, candidates[0])
    assert outcome.triggered_ad
