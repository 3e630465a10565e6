"""Automated parked-domain triage.

§4.3: 11 of the 22 benign clusters were parked or inaccessible domains,
and the paper notes "most of these domains could be automatically
filtered out using parking detection algorithms [38]. We leave adding
this automated filtering component to future work."  This module is that
component, modelled on the feature families of Vissers et al. (NDSS'15):
parking lander pages are link farms of third-party "related searches"
with no first-party scripts and for-sale boilerplate, hosted on
low-effort domain names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.crawler import AdInteraction, PageFeatures
from repro.core.discovery import DiscoveredCampaign, DiscoveryResult
from repro.core.rows import cluster_members

_SALE_MARKERS = ("for sale", "is for sale", "parked", "buy this domain")
#: Off-site anchors from which a scriptless, imageless page is a link farm.
_MIN_OFFSITE_ANCHORS = 3
#: Share of a cluster's loaded members that must be parked to park it.
_PARKED_MAJORITY = 0.6


@dataclass(frozen=True)
class ParkedVerdict:
    """Per-page detector output with the firing feature names."""

    parked: bool
    reasons: tuple[str, ...] = ()


class ParkedPageDetector:
    """Heuristic parked-page classifier over crawler page features."""

    def classify(self, features: PageFeatures) -> ParkedVerdict:
        """Classify one landing page."""
        reasons: list[str] = []
        title = features.title.lower()
        if any(marker in title for marker in _SALE_MARKERS):
            reasons.append("for-sale-title")
        if (
            features.n_offsite_anchors >= _MIN_OFFSITE_ANCHORS
            and features.n_scripts == 0
            and features.n_images == 0
        ):
            reasons.append("scriptless-link-farm")
        return ParkedVerdict(parked=bool(reasons), reasons=tuple(reasons))

    def cluster_is_parked(self, cluster: DiscoveredCampaign) -> bool:
        """Whether a cluster is (majority-)parked."""
        members = ((0, record) for record in cluster.interactions)
        return self.majority_parked(members, 1)[0]

    def majority_parked(
        self, members: Iterable[tuple[int, AdInteraction]], clusters: int
    ) -> list[bool]:
        """Per cluster index, whether its loaded members are (majority-)parked.

        ``members`` yields ``(cluster index, record)``; only the counts
        are kept, so the records can stream from the store.
        """
        loaded = [0] * clusters
        parked = [0] * clusters
        for index, record in members:
            if record.load_failed:
                continue
            loaded[index] += 1
            parked[index] += self.classify(record.page_features).parked
        return [
            n > 0 and hits / n >= _PARKED_MAJORITY for n, hits in zip(loaded, parked)
        ]


def autotriage_clusters(discovery: DiscoveryResult) -> dict[int, str]:
    """Automatically re-label parked clusters ahead of manual triage.

    Returns ``{cluster_id: "parked-auto"}`` for every kept cluster the
    detector fires on, and mutates the clusters' labels accordingly.
    Ground-truth labels are NOT consulted — this is the automated filter
    the paper's future work asks for, so it must run from page structure
    alone.  Every cluster's members are read in one pass over the store.
    """
    clusters = discovery.campaigns
    verdicts = ParkedPageDetector().majority_parked(
        cluster_members(clusters), len(clusters)
    )
    relabelled: dict[int, str] = {}
    for cluster, parked in zip(clusters, verdicts):
        if parked:
            cluster.label = "parked-auto"
            cluster.category = None
            relabelled[cluster.cluster_id] = "parked-auto"
    return relabelled
