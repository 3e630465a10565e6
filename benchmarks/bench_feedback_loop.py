"""§4.4 feedback loop, closed: crawl the expanded publisher list.

The paper's Figure 2 shows newly discovered ad networks feeding back
into the system "to further expand crawling and SEACMA campaign
coverage".  This benchmark actually closes the loop: it crawls the
publishers gained from the new networks' PublicWWW reversal, re-runs
attribution with the enlarged pattern set, and measures what the second
iteration buys.
"""

from repro.browser.useragent import PROFILES
from repro.core.attribution import attribute_interactions
from repro.core.crawler import CrawlerConfig, crawl_session
from repro.core.discovery import discover_campaigns


def test_feedback_loop(benchmark, bench_world, bench_run, save_artifact):
    expansion = bench_run.expanded_publishers
    assert expansion, "first iteration must have expanded the seed list"
    config = CrawlerConfig(max_ads=2, max_interactions=6)

    def second_iteration():
        records = []
        for domain in expansion:
            for profile in PROFILES[:2]:
                records.extend(
                    crawl_session(
                        bench_world.internet,
                        f"http://{domain}/",
                        profile,
                        bench_world.vantages_residential[2],
                        config,
                    )
                )
        return records

    new_records = benchmark.pedantic(second_iteration, rounds=1, iterations=1)
    assert new_records, "expanded publishers must serve ads too"

    # Re-attribute EVERYTHING with the enlarged pattern set.
    patterns = list(bench_run.patterns) + list(bench_run.new_patterns)
    merged = list(bench_run.crawl.interactions) + new_records
    attribution = attribute_interactions(merged, patterns)
    first_unknown = len(bench_run.attribution.unknown)
    second_unknown = len(attribution.unknown)

    # Re-discover over the merged interaction set.
    merged_discovery = discover_campaigns(merged)
    first_campaigns = len(bench_run.discovery.seacma_campaigns)
    second_campaigns = len(merged_discovery.seacma_campaigns)

    save_artifact(
        "feedback_loop",
        "\n".join(
            [
                f"expanded publishers crawled: {len(expansion)}",
                f"new interactions: {len(new_records)}",
                f"unknown attributions: {first_unknown} -> {second_unknown}",
                f"SEACMA campaigns: {first_campaigns} -> {second_campaigns}",
            ]
        ),
    )

    # The enlarged pattern set resolves what was previously unknown.
    assert second_unknown < first_unknown
    # Coverage never shrinks; typically it grows.
    assert second_campaigns >= first_campaigns
    # New-network ads now attribute to their true networks.
    new_keys = {pattern.network_key for pattern in bench_run.new_patterns}
    assert new_keys & set(attribution.by_network)
