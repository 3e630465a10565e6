"""Seed ad networks: invariant patterns and publisher reversal (§3.1).

The paper's analysts created temporary publisher accounts with 11
low-tier ad networks, extracted an *invariant feature* from each
network's (obfuscated, domain-rotating) snippet — a URL path name, URL
structure or JS variable name stable across variants — and fed those
features to PublicWWW to "reverse" them into 93,427 publisher sites.

Here the analyst step is :func:`derive_invariant_patterns`: it inspects
sample snippets exactly as a human would (looking for tokens shared by
every variant) rather than reading the network's spec directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.adnet.serving import AdNetworkServer
from repro.ecosystem.publicwww import PublicWWW, SearchHit
from repro.rng import rng_for

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]{3,}")
# Identifiers the obfuscator itself emits; never invariant.
_NOISE_RE = re.compile(r"^_0x[0-9a-f]+$")
_JS_KEYWORDS = frozenset(
    "var function document createElement getElementsByTagName parentNode "
    "insertBefore src join script".split()
)


@dataclass(frozen=True)
class InvariantPattern:
    """The reversal/attribution anchor for one ad network."""

    network_key: str
    network_name: str
    token: str

    def matches_url(self, url: str) -> bool:
        """Whether an ad-loading URL carries this network's invariant."""
        return f"/{self.token}/" in url or url.endswith(f"/{self.token}.js")


def extract_invariant_token(snippet_sources: list[str]) -> str | None:
    """Find the identifier shared by every snippet variant.

    This is the automated analogue of the paper's ~15-minute manual
    inspection: collect candidate identifiers per variant, intersect, and
    discard generic JS vocabulary and per-variant obfuscation noise.
    """
    if not snippet_sources:
        return None
    common: set[str] | None = None
    for source in snippet_sources:
        idents = {
            ident
            for ident in _IDENT_RE.findall(source)
            if ident not in _JS_KEYWORDS and not _NOISE_RE.match(ident)
        }
        common = idents if common is None else (common & idents)
    if not common:
        return None
    # Prefer the longest, then lexicographic, for determinism.
    return sorted(common, key=lambda token: (-len(token), token))[0]


def derive_invariant_patterns(
    networks: list[AdNetworkServer], seed: int
) -> list[InvariantPattern]:
    """Derive one invariant pattern per seed network from sample snippets.

    For each network, generate four snippet variants (as obtained from
    temporary publisher accounts) and intersect their identifiers.
    """
    from repro.adnet.snippets import AdTactic, build_snippet

    patterns: list[InvariantPattern] = []
    for network in networks:
        sources = []
        for index in range(4):
            rng = rng_for(seed, "seed-sample", network.spec.key, index)
            code_domain = network.pick_code_domain(rng)
            click_url = network.click_url(code_domain, publisher_id=f"sample{index}")
            snippet = build_snippet(
                network.spec, code_domain, click_url, AdTactic.DOCUMENT_CLICK, rng
            )
            sources.append(snippet.source_text)
        token = extract_invariant_token(sources)
        if token is None:
            continue
        patterns.append(
            InvariantPattern(
                network_key=network.spec.key,
                network_name=network.spec.name,
                token=token,
            )
        )
    return patterns


def reverse_to_publishers(
    patterns: list[InvariantPattern], publicwww: PublicWWW
) -> dict[str, list[SearchHit]]:
    """PublicWWW reversal: invariant pattern -> publisher site list.

    All tokens are submitted as one batch query, so the index derives
    each publisher's page source once for the whole reversal instead of
    once per seed network — the difference between one and eleven full
    materialization passes over a lazy world.
    """
    hits = publicwww.search_many([pattern.token for pattern in patterns])
    return {pattern.network_key: hits[pattern.token] for pattern in patterns}


def merged_publisher_list(hits_by_network: dict[str, list[SearchHit]]) -> list[str]:
    """Distinct publisher domains across all networks, rank-ordered."""
    best_rank: dict[str, int] = {}
    for hits in hits_by_network.values():
        for hit in hits:
            current = best_rank.get(hit.domain)
            if current is None or hit.rank < current:
                best_rank[hit.domain] = hit.rank
    return sorted(best_rank, key=lambda domain: (best_rank[domain], domain))
