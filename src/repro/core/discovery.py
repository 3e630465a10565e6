"""SEACMA campaign discovery (§3.3).

From all third-party landing pages recorded by the crawl:

1. form the distinct ``(dhash, e2LD)`` pairs;
2. cluster them with DBSCAN (``eps = 0.1`` normalized Hamming distance,
   ``MinPts = 3``);
3. keep clusters spanning at least ``theta_c = 5`` distinct e2LDs —
   the domain-churn signature of blacklist-evading SE campaigns;
4. determine ground truth per kept cluster, reproducing the paper's
   manual triage (§4.3): visual inspection / page interaction / source
   inspection — realized here by majority vote over the landing pages'
   ground-truth annotations, with dead-page clusters labelled spurious.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.attacks.categories import AttackCategory
from repro.cluster.dbscan import clusters_from_labels
from repro.cluster.filtering import filter_clusters_by_domains
from repro.cluster.incremental import IncrementalDBSCAN
from repro.core.crawler import AdInteraction
from repro.core.rows import StoredInteractions, stored
from repro.imaging.dhash import DHASH_BITS
from repro.store.base import RunStore


@dataclass
class DiscoveredCampaign:
    """One kept cluster: a candidate SEACMA campaign."""

    cluster_id: int
    #: The cluster's distinct (dhash, e2LD) member pairs.
    pairs: list[tuple[int, str]]
    #: ``interactions``-stream rows whose landing page fell in this
    #: cluster, pair by pair in first-sighting order.
    rows: list[int]
    #: Triage outcome: "se-attack", a benign kind, or "spurious".
    label: str
    #: Attack category for SE clusters (None for benign/spurious).
    category: AttackCategory | None = None
    #: The run store the rows index.
    store: RunStore | None = field(default=None, repr=False, compare=False)

    @property
    def interactions(self) -> StoredInteractions:
        """Every crawl interaction of the cluster, read from the store."""
        return StoredInteractions(self.store, self.rows)

    @property
    def is_seacma(self) -> bool:
        """Whether triage confirmed this cluster as an SE campaign."""
        return self.label == "se-attack"

    @property
    def distinct_e2lds(self) -> set[str]:
        """The e2LDs the cluster spans."""
        return {pair[1] for pair in self.pairs}

    @property
    def hashes(self) -> set[int]:
        """The cluster's screenshot hashes (the milking match set)."""
        return {pair[0] for pair in self.pairs}

    @property
    def attack_count(self) -> int:
        """Number of SE attack instances (landing pages reached)."""
        return len(self.rows)


@dataclass
class DiscoveryResult:
    """Output of the discovery stage."""

    campaigns: list[DiscoveredCampaign] = field(default_factory=list)
    eps: float = 0.1
    min_pts: int = 3
    theta_c: int = 5
    clusters_before_filter: int = 0
    noise_points: int = 0

    @property
    def seacma_campaigns(self) -> list[DiscoveredCampaign]:
        """Clusters confirmed as SE campaigns."""
        return [cluster for cluster in self.campaigns if cluster.is_seacma]

    def census(self) -> Counter:
        """Cluster counts by triage label (the §4.3 breakdown)."""
        return Counter(cluster.label for cluster in self.campaigns)

    def se_rows(self) -> list[int]:
        """The rows of every interaction in a confirmed SE campaign."""
        return [row for cluster in self.seacma_campaigns for row in cluster.rows]

    def se_interactions(self) -> StoredInteractions:
        """All interactions belonging to confirmed SE campaigns."""
        campaigns = self.seacma_campaigns
        store = campaigns[0].store if campaigns else None
        return StoredInteractions(store, self.se_rows())


class _PairFacts:
    """What discovery keeps of one distinct (dhash, e2LD) pair: its rows
    and the inputs triage reads from them."""

    __slots__ = ("rows", "kinds", "categories", "all_failed")

    def __init__(self) -> None:
        self.rows: list[int] = []
        #: Ground-truth kinds and SE categories, counted in row order.
        self.kinds: Counter = Counter()
        self.categories: Counter = Counter()
        self.all_failed = True

    def add(self, row: int, record: AdInteraction) -> None:
        self.rows.append(row)
        labels = record.labels
        self.kinds[labels.get("kind", "unknown")] += 1
        category = labels.get("category")
        if category:
            self.categories[category] += 1
        self.all_failed = self.all_failed and record.load_failed


class IncrementalDiscovery:
    """Stage ④⑤ as an incremental consumer of crawl batches.

    Ingests interactions as the farm emits them, numbering them by their
    row in the run store: each *new* distinct ``(dhash, e2LD)`` pair is
    inserted into an :class:`IncrementalDBSCAN` (step 2's neighbour
    structure grows per batch instead of being rebuilt); repeat
    sightings of a known pair only extend that pair's row list and
    triage counters.  No interaction object is kept: a campaign reads
    its members back from ``store`` by row.  :meth:`finalize` then
    applies the theta_c filter and triage over the current clustering.

    Because pairs enter in first-sighting order — the same order the
    batch stage enumerates them from the full interaction list — and the
    incremental clustering is batch-identical (see
    :mod:`repro.cluster.incremental`), ``finalize()`` returns exactly
    what :func:`discover_campaigns` returns over the concatenation of all
    ingested batches, for *any* batch-size schedule.
    """

    def __init__(
        self,
        store: RunStore,
        eps: float = 0.1,
        min_pts: int = 3,
        theta_c: int = 5,
    ) -> None:
        if not 0.0 < eps <= 1.0:
            raise ValueError("eps must be in (0, 1]")
        self.store = store
        self.eps = eps
        self.min_pts = min_pts
        self.theta_c = theta_c
        #: Distinct (dhash, e2LD) pairs, in first-sighting order.
        self._pairs: dict[tuple[int, str], _PairFacts] = {}
        self._index = IncrementalDBSCAN(int(eps * DHASH_BITS), min_pts)
        self._rows = 0

    def ingest(self, batch: Iterable[AdInteraction]) -> None:
        """Consume one batch of crawl interactions (step 1, incrementally)."""
        for record in batch:
            row = self._rows
            self._rows += 1
            if not record.landing_e2ld:
                continue
            key = (record.screenshot_hash, record.landing_e2ld)
            facts = self._pairs.get(key)
            if facts is None:
                facts = self._pairs[key] = _PairFacts()
                self._index.add(record.screenshot_hash)
            facts.add(row, record)

    def finalize(self) -> DiscoveryResult:
        """Steps 3-4 over everything ingested so far.

        Safe to call repeatedly (e.g. once per crawl batch for a live
        campaign count); each call reflects the current stream prefix.
        """
        pairs = list(self._pairs)
        labels = self._index.labels()
        clusters = clusters_from_labels(labels)
        kept = filter_clusters_by_domains(
            clusters, [pair[1] for pair in pairs], self.theta_c
        )
        result = DiscoveryResult(
            eps=self.eps,
            min_pts=self.min_pts,
            theta_c=self.theta_c,
            clusters_before_filter=len(clusters),
            noise_points=sum(1 for label in labels if label == -1),
        )
        for cluster_id in sorted(kept):
            member_pairs = [pairs[i] for i in kept[cluster_id]]
            facts = [self._pairs[pair] for pair in member_pairs]
            label, category = _triage(facts)
            result.campaigns.append(
                DiscoveredCampaign(
                    cluster_id=cluster_id,
                    pairs=member_pairs,
                    rows=[row for fact in facts for row in fact.rows],
                    label=label,
                    category=category,
                    store=self.store,
                )
            )
        return result


def discover_campaigns(
    interactions: Sequence[AdInteraction],
    eps: float = 0.1,
    min_pts: int = 3,
    theta_c: int = 5,
) -> DiscoveryResult:
    """Run the full §3.3 discovery stage over crawl interactions.

    The batch entry point: one ingest of everything, then finalize.  The
    campaigns' members are read back from a store holding
    ``interactions`` (:func:`~repro.core.rows.stored`).
    """
    store = stored(interactions)
    stage = IncrementalDiscovery(store, eps=eps, min_pts=min_pts, theta_c=theta_c)
    stage.ingest(interactions)
    return stage.finalize()


def _triage(members: list[_PairFacts]) -> tuple[str, AttackCategory | None]:
    """Determine a cluster's ground truth (the paper's manual step).

    Visual inspection / page-source inspection of the cluster's sample
    pages — realized via the landing pages' ground-truth annotations,
    which the discovery stages above never consulted.  The member pairs'
    counters merge in pair order, so every key enters the totals where
    it first appears among the members, and ``most_common`` breaks ties
    exactly as it would over the member interactions themselves.
    """
    if all(facts.all_failed for facts in members):
        return "spurious", None
    kinds: Counter = Counter()
    for facts in members:
        kinds.update(facts.kinds)
    top_kind, _ = kinds.most_common(1)[0]
    if top_kind == "se-attack":
        categories: Counter = Counter()
        for facts in members:
            categories.update(facts.categories)
        name, _ = categories.most_common(1)[0]
        return "se-attack", AttackCategory(name)
    return top_kind, None
