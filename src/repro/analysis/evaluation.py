"""Ground-truth evaluation of the pipeline's outputs.

The paper validates discovery by manual triage (§4.3); in the simulation
we additionally know the true campaign behind every attack page, so we
can score the discovery stage with standard clustering metrics:

* **recall** — fraction of true campaigns recovered as clusters;
* **precision** — fraction of SE-labelled clusters that really are SE;
* **purity** — whether every cluster contains exactly one true campaign;
* **fragmentation** — true campaigns split across multiple clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.discovery import DiscoveryResult
from repro.core.milking import MilkingReport
from repro.core.rows import cluster_members
from repro.ecosystem.world import World


@dataclass
class DiscoveryEvaluation:
    """Discovery quality against the world's ground truth."""

    true_campaigns: int
    recovered_campaigns: int
    se_clusters: int
    correct_se_clusters: int
    impure_clusters: int
    split_campaigns: int
    missed_campaign_keys: list[str] = field(default_factory=list)

    @property
    def recall(self) -> float:
        """Fraction of true campaigns recovered."""
        if self.true_campaigns == 0:
            return 0.0
        return self.recovered_campaigns / self.true_campaigns

    @property
    def precision(self) -> float:
        """Fraction of SE clusters that map to a real campaign."""
        if self.se_clusters == 0:
            return 0.0
        return self.correct_se_clusters / self.se_clusters

    @property
    def is_pure(self) -> bool:
        """No cluster mixes two campaigns and none is split."""
        return self.impure_clusters == 0 and self.split_campaigns == 0


def evaluate_discovery(world: World, discovery: DiscoveryResult) -> DiscoveryEvaluation:
    """Score a discovery result against the world's true campaigns.

    Every SE cluster's members are read in one pass over the store.
    """
    true_keys = {campaign.key for campaign in world.campaigns}
    clusters = discovery.seacma_campaigns
    owners: list[set[str]] = [set() for _ in clusters]
    for index, record in cluster_members(clusters):
        key = record.labels.get("campaign")
        if key:
            owners[index].add(key)

    recovered: set[str] = set()
    campaign_clusters: dict[str, int] = {}
    impure = 0
    split = 0
    correct = 0
    for cluster, keys in zip(clusters, owners):
        cluster_id = cluster.cluster_id
        real = keys & true_keys
        if len(keys) > 1:
            impure += 1
        if real:
            correct += 1
        for key in real:
            if key in campaign_clusters and campaign_clusters[key] != cluster_id:
                split += 1
            campaign_clusters.setdefault(key, cluster_id)
            recovered.add(key)

    return DiscoveryEvaluation(
        true_campaigns=len(true_keys),
        recovered_campaigns=len(recovered),
        se_clusters=len(clusters),
        correct_se_clusters=correct,
        impure_clusters=impure,
        split_campaigns=split,
        missed_campaign_keys=sorted(true_keys - recovered),
    )


@dataclass
class MilkingEvaluation:
    """Milking coverage against the campaigns' real domain churn."""

    milked_domains: int
    true_domains_in_window: int
    coverage: float
    false_domains: int


def evaluate_milking(world: World, report: MilkingReport) -> MilkingEvaluation:
    """How much of the tracked campaigns' real churn did milking see?

    Compares the milked domain set with every attack domain the tracked
    campaigns actually activated between the start and end of milking.
    """
    milked = {record.domain for record in report.domains}
    tracked_keys = {
        world.attack_domain_owner.get(record.domain) for record in report.domains
    } - {None}
    true_window: set[str] = set()
    for key in tracked_keys:
        campaign = world.campaign_by_key(key)
        for domain in campaign.all_attack_domains():
            activated = campaign.pool.activation_time(domain)
            if report.started_at <= activated <= report.finished_at:
                true_window.add(domain)
    covered = milked & true_window
    false_domains = len(milked - set(world.attack_domain_owner))
    return MilkingEvaluation(
        milked_domains=len(milked),
        true_domains_in_window=len(true_window),
        coverage=len(covered) / len(true_window) if true_window else 0.0,
        false_domains=false_domains,
    )
