"""Ad-loading process reconstruction (§3.4) and milkable-URL extraction.

From the instrumented browser's per-ad logs we rebuild the *backtracking
graph*: every URL involved in publishing the ad and reaching the attack
page, with edges following the causal loading order (publisher page →
snippet script → ad click URL → upstream TDS → attack page), exactly as
in Figure 3.

Walking backwards from the attack-page node, the first URL hosted off
the attack page's domain is the campaign's *candidate milkable URL*
(§3.5) — typically the long-lived upstream TDS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.crawler import AdInteraction
from repro.errors import AttributionError
from repro.telemetry import current as current_telemetry
from repro.urlkit.url import parse_url
from repro.errors import UrlError


@dataclass(frozen=True)
class BacktrackingGraph:
    """The URL graph of one triggered ad (Figure 3).

    ``nodes`` maps each URL to its role — ``publisher``, ``script``,
    ``hop``, ``attack`` or ``dead`` — in first-seen order; ``edges``
    holds ``(src, dst, cause)`` triples in causal loading order, where
    ``cause`` records the loading mechanism.
    """

    nodes: dict[str, str]
    edges: tuple[tuple[str, str, str], ...]


def backtracking_graph(interaction: AdInteraction) -> BacktrackingGraph:
    """Build the URL graph for one triggered ad."""
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str, str]] = []
    previous: str | None = None
    if interaction.publisher_url:
        nodes[interaction.publisher_url] = "publisher"
        previous = interaction.publisher_url
    # The script that opened the ad tab, if its provenance was captured.
    opener_script = None
    for node in interaction.chain:
        if node.source_url:
            opener_script = node.source_url
            break
    if opener_script is not None:
        nodes[opener_script] = "script"
        if previous is not None:
            edges.append((previous, opener_script, "script-include"))
        previous = opener_script
    last_url: str | None = None
    for node in interaction.chain:
        if node.url == last_url:
            continue  # tab-open + initial navigation log the same URL twice
        nodes[node.url] = "hop"
        if previous is not None:
            edges.append((previous, node.url, node.cause))
        previous = node.url
        last_url = node.url
    if last_url is not None:
        nodes[last_url] = "attack" if not interaction.load_failed else "dead"
    return BacktrackingGraph(nodes=nodes, edges=tuple(edges))


def attack_node(graph: BacktrackingGraph) -> str:
    """The graph's final landing node (start of the backtracking walk)."""
    for url, role in graph.nodes.items():
        if role in ("attack", "dead"):
            return url
    raise AttributionError("graph has no attack node")


def milkable_candidates(interaction: AdInteraction) -> list[str]:
    """Candidate milkable URLs for one SE ad (§3.5).

    Walk the loading chain backwards from the attack page; the first URL
    hosted on a *different* domain is the upstream candidate.  Publisher
    and snippet-script URLs are excluded — milking must not touch the
    publisher or the ad network (§6 ethics).
    """
    if not interaction.chain:
        return []
    attack_host = interaction.landing_host
    script_urls = set(interaction.publisher_scripts)
    for node in interaction.chain:
        if node.source_url:
            script_urls.add(node.source_url)
    seen: list[str] = []
    for node in reversed(interaction.chain):
        try:
            host = parse_url(node.url).host
        except UrlError:
            continue
        if host == attack_host:
            continue
        if node.url in script_urls or host == _host_of(interaction.publisher_url):
            continue
        if _is_adnet_click(node.url):
            continue
        seen.append(node.url)
    # Closest-to-the-attack candidate first (the Figure 4 TDS hop).
    telemetry = current_telemetry()
    telemetry.inc("backtrack.walks")
    telemetry.inc("backtrack.candidates", len(seen[:1]))
    return seen[:1]


def _host_of(url: str) -> str | None:
    try:
        return parse_url(url).host
    except UrlError:
        return None


def _is_adnet_click(url: str) -> bool:
    """Heuristic: ad-network click endpoints carry a publisher id."""
    try:
        parsed = parse_url(url)
    except UrlError:
        return False
    return "pid" in parsed.params
