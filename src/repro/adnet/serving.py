"""Ad-network serving endpoints.

Each network runs one :class:`AdNetworkServer` answering on all of its
code domains.  The click endpoint (whose URL *path* carries the network's
invariant token — the URL-structure invariant §3.1 reverses on) decides
per impression whether to send the visitor to one of the SEACMA campaigns
the network distributes or to a benign advertiser, honouring platform
targeting and non-residential cloaking.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.adnet.spec import AdNetworkSpec
from repro.net.http import HttpRequest, HttpResponse, not_found, redirect
from repro.net.server import FetchContext, VirtualServer
from repro.rng import weighted_choice
from repro.urlkit.domains import DomainGenerator
from repro.urlkit.url import Url

# A campaign, from the ad network's point of view: something with an id, a
# platform filter and an entry URL.  Typed loosely to avoid a dependency
# on the attacks package.
CampaignLike = object


def platform_of_ua(ua_string: str) -> str:
    """Coarse platform targeting key derived from a User-Agent string."""
    if "Android" in ua_string or "Mobile" in ua_string:
        return "mobile"
    if "Mac OS X" in ua_string or "Macintosh" in ua_string:
        return "macos"
    return "windows"


class AdNetworkServer(VirtualServer):
    """One low-tier ad network: code domains + ad-decision endpoint."""

    def __init__(
        self,
        spec: AdNetworkSpec,
        seed: int,
        benign_url_picker: Callable[[random.Random, float], Url],
        max_code_domains: int | None = None,
    ) -> None:
        self.spec = spec
        self._seed = seed
        generator = DomainGenerator(seed, f"adnet/{spec.key}")
        domain_count = spec.code_domain_count
        if max_code_domains is not None:
            domain_count = min(domain_count, max_code_domains)
        self.code_domains: list[str] = [
            generator.word_salad() for _ in range(domain_count)
        ]
        self._benign_url_picker = benign_url_picker
        # (campaign, weight) inventory, filled by the world builder.
        self._inventory: list[tuple[CampaignLike, float]] = []
        #: Per platform, the eligible (campaigns, weights) of the
        #: inventory; rebuilt after the inventory changes.
        self._eligible: dict[str, tuple[list[CampaignLike], list[float]]] = {}
        self._banner_cache: dict[str, object] = {}
        # Syndication partners (§3.5 "ad exchange networks and ad
        # syndication"): other networks this one resells traffic to.
        self._partners: list["AdNetworkServer"] = []
        self.syndication_prob = 0.0
        self.impressions = 0
        self.se_impressions = 0
        self.syndicated_impressions = 0

    # ----------------------------------------------------------- inventory

    def add_campaign(self, campaign: CampaignLike, weight: float = 1.0) -> None:
        """Register a SEACMA campaign this network distributes."""
        if weight <= 0:
            raise ValueError("campaign weight must be positive")
        self._inventory.append((campaign, weight))
        self._eligible.clear()

    def campaigns(self) -> list[CampaignLike]:
        """The campaigns currently in inventory."""
        return [campaign for campaign, _ in self._inventory]

    def add_syndication_partner(self, partner: "AdNetworkServer", prob: float) -> None:
        """Resell a fraction of this network's traffic to ``partner``."""
        if not 0.0 <= prob <= 1.0:
            raise ValueError("syndication probability must be in [0, 1]")
        if partner is self:
            raise ValueError("a network cannot syndicate to itself")
        self._partners.append(partner)
        self.syndication_prob = prob

    # ------------------------------------------------------------- serving

    def click_url(self, code_domain: str, publisher_id: str) -> str:
        """The per-publisher ad-click endpoint URL.

        The path embeds the network's invariant token, which is what the
        attribution step (§3.6) pattern-matches on.
        """
        if code_domain not in self.code_domains:
            raise ValueError(f"{code_domain} is not a {self.spec.name} domain")
        return f"http://{code_domain}/{self.spec.invariant_token}/go?pid={publisher_id}"

    def pick_code_domain(self, rng: random.Random) -> str:
        """A (rotating) domain to serve this publisher's snippet from."""
        return rng.choice(self.code_domains)

    def handle(self, request: HttpRequest, context: FetchContext) -> HttpResponse:
        parts = [part for part in request.url.path.split("/") if part]
        if not parts:
            return not_found()
        if parts[-1] == "go" and parts[0] == self.spec.invariant_token:
            return self._decide_ad(request, context)
        if parts[-1] == "banner" and parts[0] == self.spec.invariant_token:
            return self._serve_banner(request)
        if parts[-1].endswith(".js"):
            # The snippet library itself; content is modelled client-side.
            return HttpResponse(status=200, body=None, content_type="application/javascript")
        return not_found()

    def _serve_banner(self, request: HttpRequest) -> HttpResponse:
        """The banner-iframe document: a creative plus a click handler
        that opens the network's ad-click endpoint."""
        from repro.dom.nodes import div, img
        from repro.dom.page import PageContent, VisualSpec
        from repro.js.api import AddListener, OpenTab, Script, handler
        from repro.net.http import html_response

        publisher_id = request.url.params.get("pid", "unknown")
        cache_key = f"banner/{publisher_id}"
        page = self._banner_cache.get(cache_key)
        if page is None:
            click_url = (
                f"http://{request.url.host}/{self.spec.invariant_token}/go?pid={publisher_id}"
            )
            root = div(width=300, height=250)
            root.append(img("creative.jpg", 300, 250))
            page = PageContent(
                title=f"{self.spec.name} banner",
                document=root,
                scripts=[
                    Script(
                        ops=(AddListener("document", "click", handler(OpenTab(click_url))),),
                        url=f"http://{request.url.host}/{self.spec.invariant_token}/render.js",
                        source_text=f"/* {self.spec.invariant_token} banner */",
                    )
                ],
                visual=VisualSpec(template_key=f"adnet/{self.spec.key}/banner"),
                labels={"kind": "ad-banner", "network": self.spec.key},
            )
            self._banner_cache[cache_key] = page
        return html_response(page)

    def _decide_ad(self, request: HttpRequest, context: FetchContext) -> HttpResponse:
        self.impressions += 1
        now = context.now
        # Ad decisions draw from the crawl scope's own stream (the
        # publisher domain driving the visit, the root scope outside the
        # farm), so a unit's ad sequence depends only on its own
        # impression order — never on how impressions from other units
        # interleave.  That independence is what makes sharded crawls
        # byte-identical to sequential ones.
        rng = context.scope.stream(self._seed, "adnet", self.spec.key)
        if self.spec.cloaks_nonresidential and not request.vantage.looks_residential:
            return redirect(self._benign_url_picker(rng, now))
        # Syndication: hand the impression to a partner exchange.  The
        # ``syn`` marker stops resold impressions from bouncing onward,
        # bounding chains at one hop as real resellers do for latency.
        if (
            self._partners
            and "syn" not in request.url.params
            and rng.random() < self.syndication_prob
        ):
            self.syndicated_impressions += 1
            partner = rng.choice(self._partners)
            partner_domain = partner.pick_code_domain(rng)
            publisher_id = request.url.params.get("pid", "unknown")
            target = (
                f"http://{partner_domain}/{partner.spec.invariant_token}/go"
                f"?pid={publisher_id}&syn=1"
            )
            return redirect(target)
        campaigns, weights = self._eligible_for(platform_of_ua(request.user_agent))
        if campaigns and rng.random() < self.spec.se_rate:
            self.se_impressions += 1
            campaign = weighted_choice(rng, campaigns, weights)
            return redirect(campaign.entry_url(now))  # type: ignore[attr-defined]
        return redirect(self._benign_url_picker(rng, now))

    def _eligible_for(self, platform: str) -> tuple[list[CampaignLike], list[float]]:
        """The inventory's campaigns targeting ``platform``, with weights."""
        eligible = self._eligible.get(platform)
        if eligible is None:
            pairs = [
                (campaign, weight)
                for campaign, weight in self._inventory
                if platform in campaign.platforms  # type: ignore[attr-defined]
            ]
            eligible = self._eligible[platform] = (
                [campaign for campaign, _ in pairs],
                [weight for _, weight in pairs],
            )
        return eligible
