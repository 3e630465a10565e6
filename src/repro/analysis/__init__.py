"""Analysis layer: evaluation, defense feeds, triage automation, export.

These modules turn the pipeline's raw outputs into the deliverables the
paper motivates: ground-truth evaluation of discovery quality, proactive
blacklist feeds that beat GSB's lag, automated parked-domain triage
(left as future work in §4.3), campaign statistics, and JSON dataset
export (the paper releases its logs/screenshots for the community).
"""

from repro.analysis.evaluation import DiscoveryEvaluation, evaluate_discovery, evaluate_milking
from repro.analysis.parking import ParkedPageDetector, autotriage_clusters
from repro.analysis.feeds import (
    BlacklistFeed,
    FeedEntry,
    build_domain_feed,
    build_gateway_feed,
    build_phone_feed,
    feed_vs_gsb,
)
from repro.analysis.stats import CampaignTimeline, campaign_timelines, churn_summary
from repro.analysis.export import (
    export_crawl_dataset,
    export_milking_report,
    export_screenshot_gallery,
    import_crawl_dataset,
)
from repro.analysis.reportgen import generate_report
from repro.analysis.uncertainty import (
    table3_with_intervals,
    wilson_interval,
)

__all__ = [
    "DiscoveryEvaluation",
    "evaluate_discovery",
    "evaluate_milking",
    "ParkedPageDetector",
    "autotriage_clusters",
    "BlacklistFeed",
    "FeedEntry",
    "build_domain_feed",
    "build_phone_feed",
    "build_gateway_feed",
    "feed_vs_gsb",
    "CampaignTimeline",
    "campaign_timelines",
    "churn_summary",
    "export_crawl_dataset",
    "export_milking_report",
    "export_screenshot_gallery",
    "import_crawl_dataset",
    "generate_report",
    "wilson_interval",
    "table3_with_intervals",
]
