"""The per-site crawling session (§3.2).

For one (publisher, user-agent, vantage) triple the crawler:

1. opens the site in a fresh instrumented browser (stealth DevTools
   client, dialog bypass enabled);
2. ranks the page's images and iframes by rendered size and clicks them
   largest-first (transparent overlays intercept clicks wherever they
   land, which is exactly what the heuristics rely on);
3. repeats the same click a few times to drain stacked ad networks;
4. records, for every triggered ad, the opened third-party page's URL,
   screenshot dhash and full navigation chain (with script provenance)
   — the raw material for discovery, backtracking and attribution;
5. stops at the ad quota, the interaction cap, or the session timeout,
   then reloads and moves to the next element if the tab was stolen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.browser.browser import Browser, Tab
from repro.browser.devtools import DevToolsClient
from repro.browser.logging import (
    NavigationEntry,
    NotificationPromptEntry,
    ScriptFetchEntry,
    TabOpenEntry,
)
from repro.browser.useragent import UserAgentProfile
from repro.dom.page import PageFeatures
from repro.ecosystem.world import WorldConfig
from repro.net.ipspace import VantagePoint
from repro.net.network import Internet
from repro.urlkit.psl import e2ld


@dataclass(slots=True)
class ChainNode:
    """One hop of an ad-loading chain: a URL, why it appeared, and which
    script (if any) caused it."""

    url: str
    cause: str
    source_url: str | None = None


@dataclass(slots=True)
class AdInteraction:
    """One triggered ad: the unit record of the whole measurement."""

    publisher_domain: str
    publisher_url: str
    ua_name: str
    vantage_name: str
    landing_url: str
    landing_host: str
    landing_e2ld: str
    screenshot_hash: int
    timestamp: float
    #: Full hop sequence from the click to the landing page.
    chain: tuple[ChainNode, ...]
    #: Script fetches observed on the publisher page (provenance edges).
    publisher_scripts: tuple[str, ...]
    load_failed: bool = False
    notification_prompt: bool = False
    #: Push endpoint offered by the landing page's permission prompt.
    notification_push_endpoint: str | None = None
    popunder: bool = False
    #: Structural features of the landing page (for automated triage).
    page_features: PageFeatures = field(default_factory=PageFeatures)
    #: Ground-truth annotations from the landing page — used only for
    #: evaluating the pipeline, never by the pipeline itself.
    labels: dict = field(default_factory=dict, compare=False)


def interaction_to_dict(record: AdInteraction) -> dict[str, Any]:
    """One ad interaction as a JSON-compatible dict.

    The one interaction codec: the released crawl dataset, the store's
    ``interactions`` stream and the shard segments all use it.
    """
    return {
        "publisher_domain": record.publisher_domain,
        "publisher_url": record.publisher_url,
        "ua_name": record.ua_name,
        "vantage_name": record.vantage_name,
        "landing_url": record.landing_url,
        "landing_host": record.landing_host,
        "landing_e2ld": record.landing_e2ld,
        "screenshot_hash": f"{record.screenshot_hash:032x}",
        "timestamp": record.timestamp,
        "chain": [
            {"url": node.url, "cause": node.cause, "source_url": node.source_url}
            for node in record.chain
        ],
        "publisher_scripts": list(record.publisher_scripts),
        "load_failed": record.load_failed,
        "notification_prompt": record.notification_prompt,
        "notification_push_endpoint": record.notification_push_endpoint,
        "popunder": record.popunder,
        "page_features": {
            "n_scripts": record.page_features.n_scripts,
            "n_images": record.page_features.n_images,
            "n_anchors": record.page_features.n_anchors,
            "n_offsite_anchors": record.page_features.n_offsite_anchors,
            "title": record.page_features.title,
        },
        # Key-sorted, as the store writes it: a record exported from the
        # store and one exported from memory are the same bytes.
        "labels": dict(sorted(record.labels.items())),
    }


def interaction_from_dict(data: dict[str, Any]) -> AdInteraction:
    """Inverse of :func:`interaction_to_dict`."""
    features = data.get("page_features", {})
    return AdInteraction(
        publisher_domain=data["publisher_domain"],
        publisher_url=data["publisher_url"],
        ua_name=data["ua_name"],
        vantage_name=data["vantage_name"],
        landing_url=data["landing_url"],
        landing_host=data["landing_host"],
        landing_e2ld=data["landing_e2ld"],
        screenshot_hash=int(data["screenshot_hash"], 16),
        timestamp=data["timestamp"],
        chain=tuple(
            ChainNode(url=node["url"], cause=node["cause"], source_url=node.get("source_url"))
            for node in data["chain"]
        ),
        publisher_scripts=tuple(data["publisher_scripts"]),
        load_failed=data["load_failed"],
        notification_prompt=data["notification_prompt"],
        notification_push_endpoint=data.get("notification_push_endpoint"),
        popunder=data["popunder"],
        page_features=PageFeatures(
            n_scripts=features.get("n_scripts", 0),
            n_images=features.get("n_images", 0),
            n_anchors=features.get("n_anchors", 0),
            n_offsite_anchors=features.get("n_offsite_anchors", 0),
            title=features.get("title", ""),
        ),
        labels=dict(data.get("labels", {})),
    )


#: Clicks on one candidate element before the crawler moves to the next.
REPEAT_CLICKS = 3


@dataclass(frozen=True)
class CrawlerConfig:
    """Per-session knobs (the paper's "tunable" parameters)."""

    max_ads: int = 3
    max_interactions: int = 10


def _visit_publisher(browser: Browser, internet: Internet, url: str) -> Tab:
    """Visit the publisher, retrying launches lost to transient faults.

    Only transient losses (tab crashes, exhausted fetch retries) are
    retried, and only while the retry budget allows; dead hosts and HTTP
    errors are final.
    """
    tab = browser.visit(url)
    resilience = internet.resilience
    attempt = 0
    while (
        not tab.loaded
        and tab.failure in ("transient", "tab-crash")
        and resilience is not None
        and resilience.retry.should_retry(attempt)
    ):
        resilience.backoff(attempt, "publisher-visit", url)
        attempt += 1
        tab = browser.visit(url)
    return tab


def crawl_session(
    internet: Internet,
    publisher_url: str,
    profile: UserAgentProfile,
    vantage: VantagePoint,
    config: CrawlerConfig | None = None,
    session_seconds: float = WorldConfig.session_seconds,
) -> list[AdInteraction]:
    """Run one crawling session and return the recorded ad interactions.

    No new candidate element is clicked once ``session_seconds`` of
    virtual time have passed (the world's
    :attr:`~repro.ecosystem.world.WorldConfig.session_seconds`).

    Landing-page features are extracted once per served page and host
    (:meth:`repro.dom.page.PageContent.features`) and screenshot hashes
    once per visual (:func:`repro.imaging.dhash.visual_dhash`).
    """
    config = config if config is not None else CrawlerConfig()
    client = DevToolsClient(internet, profile, vantage, stealth=True, bypass_locking=True)
    browser = client.browser
    interactions: list[AdInteraction] = []
    deadline = internet.clock.now() + session_seconds

    tab = _visit_publisher(browser, internet, publisher_url)
    if not tab.loaded:
        return interactions
    publisher_domain = tab.current_url.host if tab.current_url else ""
    candidates = tab.load.candidates()
    clicks = 0
    candidate_index = 0
    while (
        len(interactions) < config.max_ads
        and clicks < config.max_interactions
        and candidate_index < len(candidates)
        and internet.clock.now() < deadline
    ):
        element = candidates[candidate_index]
        repeats = 0
        while repeats < REPEAT_CLICKS and len(interactions) < config.max_ads:
            if not tab.loaded:
                break
            outcome = browser.click(tab, element)
            clicks += 1
            repeats += 1
            internet.clock.advance(2.0)  # think time between clicks
            for new_tab in outcome.new_tabs:
                interactions.append(
                    _record_interaction(browser, tab, new_tab, profile, vantage)
                )
            if outcome.navigated_away:
                interactions.append(
                    _record_interaction(browser, tab, tab, profile, vantage, stolen=True)
                )
                # Re-open the browser tab on the publisher, §3.2.  The
                # reload is a fresh load, so re-rank its elements.
                tab = _visit_publisher(browser, internet, publisher_url)
                if not tab.loaded:
                    return interactions
                candidates = tab.load.candidates()
                break
            if not outcome.triggered_ad and outcome.handlers_fired == 0:
                break  # nothing armed on this element; move on
        candidate_index += 1
    return interactions


def _record_interaction(
    browser: Browser,
    publisher_tab: Tab,
    landing_tab: Tab,
    profile: UserAgentProfile,
    vantage: VantagePoint,
    stolen: bool = False,
) -> AdInteraction:
    """Snapshot one triggered ad from the session log."""
    log = browser.log
    shot = browser.screenshot(landing_tab)
    landing_url = shot.url
    landing_host = landing_tab.current_url.host if landing_tab.current_url else ""
    landing_id = landing_tab.tab_id
    # The log's rows are the entries' fields in order (see BrowserLog).
    opens = log.rows(TabOpenEntry, landing_id)
    navigations = log.rows(NavigationEntry, landing_id)
    chain: list[ChainNode] = []
    popunder = False
    if opens:  # a tab opens at most once
        _, _, _, open_url, open_source, popunder = opens[-1]
        if not (navigations and navigations[0][2] == open_url):
            chain.append(ChainNode(open_url, "window-open", open_source))
    for _, _, url, cause, source_url, _ in navigations:
        chain.append(ChainNode(url, cause, source_url))
    scripts = tuple(
        script_url
        for _, _, _, script_url in log.rows(ScriptFetchEntry, publisher_tab.tab_id)
    )
    prompts = log.rows(NotificationPromptEntry, landing_id)
    push_endpoint = None
    for _, _, _, _, endpoint, _ in prompts:
        if endpoint:
            push_endpoint = endpoint
    page = landing_tab.page
    labels = dict(page.labels) if page is not None else {}
    features = page.features(landing_host) if page is not None else PageFeatures()
    return AdInteraction(
        publisher_domain=publisher_tab.history[0].host if publisher_tab.history else "",
        publisher_url=str(publisher_tab.history[0]) if publisher_tab.history else "",
        ua_name=profile.name,
        vantage_name=vantage.name,
        landing_url=landing_url,
        landing_host=landing_host,
        landing_e2ld=e2ld(landing_host) if landing_host else "",
        screenshot_hash=shot.dhash,
        timestamp=shot.timestamp,
        chain=tuple(chain),
        publisher_scripts=scripts,
        load_failed=not landing_tab.loaded,
        notification_prompt=bool(prompts),
        notification_push_endpoint=push_endpoint,
        popunder=bool(popunder),
        page_features=features,
        labels=labels,
    )
