"""Ad-network attribution and new-network discovery (§3.6 / §4.4).

Every triggered ad's loading chain is matched against the invariant
patterns of the known ad networks (URL structures / snippet variable
names, §3.1).  Chains matching no pattern are labelled "unknown"; a
manual-analysis pass over a sample of unknowns recovers new invariant
tokens, which resolve to previously unseeded networks (the paper found
Ero Advertising, Yllix and Ad-Center this way) and can then be reversed
through PublicWWW to expand the crawl by thousands of publishers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.adnet.spec import ALL_NETWORK_SPECS
from repro.core.crawler import AdInteraction
from repro.core.rows import StoredInteractions, stored
from repro.core.seeds import InvariantPattern
from repro.ecosystem.publicwww import PublicWWW
from repro.store.base import RunStore

_TOKEN_FROM_PATH = re.compile(r"^http://[^/]+/([A-Za-z0-9_]+)(?:\.js$|/go\b)")


@dataclass
class AttributionResult:
    """Interactions grouped by the ad network that served the ad.

    Kept as one network key (or ``None``) per ``interactions``-stream
    row; the per-network groups are views that read their records back
    from ``store``.
    """

    #: Network key per row, in row order (``None``: unattributed).
    keys: list[str | None] = field(default_factory=list)
    #: The run store the rows index.
    store: RunStore | None = field(default=None, repr=False, compare=False)

    def rows_by_network(self) -> dict[str, list[int]]:
        """Attributed rows per network key, networks in first-seen order."""
        rows: dict[str, list[int]] = {}
        for row, key in enumerate(self.keys):
            if key is not None:
                rows.setdefault(key, []).append(row)
        return rows

    @property
    def by_network(self) -> dict[str, StoredInteractions]:
        """The attributed interactions of each network."""
        return {
            key: StoredInteractions(self.store, rows)
            for key, rows in self.rows_by_network().items()
        }

    def unknown_rows(self) -> list[int]:
        """Rows no known network's pattern matched."""
        return [row for row, key in enumerate(self.keys) if key is None]

    @property
    def unknown(self) -> StoredInteractions:
        """The interactions no known network's pattern matched."""
        return StoredInteractions(self.store, self.unknown_rows())

    def network_counts(self) -> Counter:
        """Interactions attributed per network key."""
        return Counter(key for key in self.keys if key is not None)

    @property
    def attributed_count(self) -> int:
        """Total interactions attributed to some known network."""
        return sum(1 for key in self.keys if key is not None)


class IncrementalAttribution:
    """Stage ⑦ as an incremental consumer of crawl batches.

    Matching each ad against the invariant patterns is per-record work,
    so feeding the stage in any batch schedule yields the same result as
    one batch pass in the same total order.  ``keys[i]`` records the
    network key (or ``None``) of the *i*-th ingested interaction — row
    *i* of the run store, and the stage's whole state.
    """

    def __init__(self, store: RunStore, patterns: list[InvariantPattern]) -> None:
        self.patterns = patterns
        #: Network key per ingested interaction, in ingest order.
        self.keys: list[str | None] = []
        self._result = AttributionResult(keys=self.keys, store=store)

    def ingest(self, batch: Iterable[AdInteraction]) -> None:
        """Attribute one batch of interactions."""
        for record in batch:
            self.keys.append(_attribute_one(record, self.patterns))

    def finalize(self) -> AttributionResult:
        """The attribution over everything ingested so far."""
        return self._result


def attribute_interactions(
    interactions: Sequence[AdInteraction],
    patterns: list[InvariantPattern],
) -> AttributionResult:
    """Match each ad's loading chain against known invariant patterns.

    Only URLs from *this ad's* chain (the click endpoint and the snippet
    script that opened the tab) are considered — publisher pages often
    stack several networks, so page-level matching would misattribute.
    """
    stage = IncrementalAttribution(stored(interactions), patterns)
    stage.ingest(interactions)
    return stage.finalize()


def _attribute_one(
    record: AdInteraction, patterns: list[InvariantPattern]
) -> str | None:
    # Walk the chain in loading order so that a *syndicated* ad (network
    # A's click endpoint reselling to network B's) attributes to the
    # network the publisher actually embeds — the first one in the chain.
    for url in _chain_urls(record):
        for pattern in patterns:
            if pattern.matches_url(url):
                return pattern.network_key
    return None


def _chain_urls(record: AdInteraction):
    for node in record.chain:
        yield node.url
        if node.source_url:
            yield node.source_url


def discover_new_networks(
    unknown: Sequence[AdInteraction],
    sample_size: int = 50,
    min_occurrences: int = 3,
) -> list[InvariantPattern]:
    """The §4.4 manual-analysis pass over a sample of unknown attacks.

    The logs already contain each attack's backtracking chain, so the
    analyst only has to spot recurring URL artifacts and investigate them
    with a search engine.  We reproduce that: extract candidate tokens
    from the chains' URL paths, keep those recurring across several
    unknown attacks, and resolve each token to its network identity (the
    search-engine step) via the public network registry.
    """
    token_counts: Counter = Counter()
    for record in unknown[:sample_size]:
        seen: set[str] = set()
        for url in _chain_urls(record):
            match = _TOKEN_FROM_PATH.match(url)
            if match:
                seen.add(match.group(1))
        token_counts.update(seen)
    discovered: list[InvariantPattern] = []
    for token, count in token_counts.most_common():
        if count < min_occurrences:
            continue
        for spec in ALL_NETWORK_SPECS:
            if spec.invariant_token == token:
                discovered.append(
                    InvariantPattern(
                        network_key=spec.key, network_name=spec.name, token=token
                    )
                )
                break
    return discovered


def expand_publisher_list(
    new_patterns: list[InvariantPattern],
    publicwww: PublicWWW,
    already_known: set[str],
) -> list[str]:
    """Reverse newly discovered networks into additional publishers.

    One batch query for all newly discovered tokens: a lazy world
    re-derives each publisher source once for the whole expansion.
    """
    if not new_patterns:
        return []
    found: set[str] = set()
    hits = publicwww.search_many([pattern.token for pattern in new_patterns])
    for results in hits.values():
        for hit in results:
            if hit.domain not in already_known:
                found.add(hit.domain)
    return sorted(found)
