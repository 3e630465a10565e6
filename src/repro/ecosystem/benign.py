"""The benign side of the low-tier ad ecosystem.

Most ad clicks land on ordinary advertiser pages; these never form
SEACMA-like clusters because each advertiser has a stable domain and its
own look.  But §4.3 catalogues 22 *benign* clusters that do pass the
pipeline's filters, and each has a generative source here:

* 11 clusters of **parked / inaccessible domains** — parking providers
  render the same placeholder across many unrelated domains;
* 6 clusters of **stock-image adult pages** — identical stock photos on
  many domains;
* 4 clusters from **ad-based URL shorteners** (adf.ly, shorte.st) whose
  interstitials appear on many alias domains;
* 1 **spurious** cluster from improperly loading pages, which we realize
  as ad destinations whose domains are already dead (NXDOMAIN), so every
  screenshot is the identical dead-page rendering.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.dom.nodes import div, img
from repro.dom.page import PageContent, VisualSpec
from repro.net.http import HttpRequest, HttpResponse, html_response, not_found
from repro.net.server import FetchContext, VirtualServer
from repro.rng import derive, rng_for, weighted_choice
from repro.urlkit.domains import DomainGenerator
from repro.urlkit.url import Url, parse_url


class BenignKind(enum.Enum):
    """Ground-truth classes of benign ad destinations."""

    ADVERTISER = "advertiser"
    PARKED = "parked"
    STOCK_ADULT = "stock-adult"
    SHORTENER = "shortener"
    DEAD = "dead"


#: How benign ad traffic splits across destination kinds.
_KIND_WEIGHTS = {
    BenignKind.ADVERTISER: 0.72,
    BenignKind.PARKED: 0.09,
    BenignKind.STOCK_ADULT: 0.06,
    BenignKind.SHORTENER: 0.10,
    BenignKind.DEAD: 0.03,
}
_KINDS = tuple(_KIND_WEIGHTS)
_WEIGHTS = tuple(_KIND_WEIGHTS.values())
#: Domain aliases per shortener service and interstitial layout.
_SHORTENER_ALIASES = 6


@dataclass
class _TemplateFamily:
    """A set of domains sharing one visual template (one cluster source)."""

    kind: BenignKind
    template_key: str
    domains: list[str]
    paths: list[str] = field(default_factory=lambda: ["/"])


class BenignWeb(VirtualServer):
    """All benign ad destinations, served from a single virtual server."""

    def __init__(
        self,
        seed: int,
        *,
        n_advertisers: int = 120,
        n_parking_providers: int = 11,
        n_stock_sets: int = 6,
    ) -> None:
        self._rng: random.Random = rng_for(seed, "benign")
        generator = DomainGenerator(seed, "benign")
        self._families: list[_TemplateFamily] = []
        #: The families of each kind, in creation order (``pick_url``'s pools).
        self._families_by_kind: dict[BenignKind, list[_TemplateFamily]] = {}
        self._host_to_family: dict[str, _TemplateFamily] = {}
        self._page_cache: dict[str, PageContent] = {}

        # Stable advertisers: one domain, one template each.
        for index in range(n_advertisers):
            self._add_family(
                _TemplateFamily(
                    kind=BenignKind.ADVERTISER,
                    template_key=f"benign/adv/{index}",
                    domains=[generator.word_salad(tld="com")],
                    paths=["/landing"],
                )
            )
        # Parking providers: one template across eight domains each.
        for index in range(n_parking_providers):
            self._add_family(
                _TemplateFamily(
                    kind=BenignKind.PARKED,
                    template_key=f"benign/parked/{index}",
                    domains=[generator.dga(tld="com") for _ in range(8)],
                )
            )
        # Stock-image adult pages: seven domains per stock set.
        for index in range(n_stock_sets):
            self._add_family(
                _TemplateFamily(
                    kind=BenignKind.STOCK_ADULT,
                    template_key=f"benign/stock/{index}",
                    domains=[generator.dga(tld="xyz") for _ in range(7)],
                )
            )
        # URL shorteners: two services x two interstitial layouts each.
        for service in ("adfly", "shortest"):
            aliases = [
                generator.word_salad(tld="ws") for _ in range(_SHORTENER_ALIASES)
            ]
            for layout in ("desktop", "mobile"):
                self._add_family(
                    _TemplateFamily(
                        kind=BenignKind.SHORTENER,
                        template_key=f"benign/shortener/{service}/{layout}",
                        domains=aliases if layout == "desktop" else [
                            generator.word_salad(tld="st") for _ in range(_SHORTENER_ALIASES)
                        ],
                        paths=["/st"],
                    )
                )
        # Dead destinations: six domains that never resolve.
        self._dead_hosts = {generator.dga(tld="top") for _ in range(6)}
        self._dead_hosts_sorted = sorted(self._dead_hosts)

    # --------------------------------------------------------------- build

    def _add_family(self, family: _TemplateFamily) -> None:
        self._families.append(family)
        self._families_by_kind.setdefault(family.kind, []).append(family)
        for domain in family.domains:
            self._host_to_family[domain] = family

    def adopt_host(self, host: str) -> None:
        """Host an externally owned page (e.g. a scam customer's signup
        site the Registration/Lottery campaigns forward victims to)."""
        if host in self._host_to_family:
            return
        self._add_family(
            _TemplateFamily(
                kind=BenignKind.ADVERTISER,
                template_key=f"benign/customer/{host}",
                domains=[host],
                paths=["/signup"],
            )
        )

    # -------------------------------------------------------------- access

    def all_hosts(self) -> list[str]:
        """Every resolving benign host (for DNS registration)."""
        return sorted(self._host_to_family)

    def dead_hosts(self) -> list[str]:
        """Hosts benign ads may point at that never resolve."""
        return list(self._dead_hosts_sorted)

    def kind_of_host(self, host: str) -> BenignKind | None:
        """Ground-truth class of ``host`` (None if not part of BenignWeb)."""
        family = self._host_to_family.get(host)
        if family is not None:
            return family.kind
        if host in self._dead_hosts:
            return BenignKind.DEAD
        return None

    def pick_url(self, rng: random.Random, now: float) -> Url:
        """An ad-click destination, sampled by traffic weights."""
        kind = weighted_choice(rng, _KINDS, _WEIGHTS)
        if kind is BenignKind.DEAD:
            host = rng.choice(self._dead_hosts_sorted)
            return parse_url(f"http://{host}/offer")
        family = rng.choice(self._families_by_kind.get(kind, ()))
        domain = rng.choice(family.domains)
        path = rng.choice(family.paths)
        return parse_url(f"http://{domain}{path}")

    # ------------------------------------------------------------- serving

    def handle(self, request: HttpRequest, context: FetchContext) -> HttpResponse:
        family = self._host_to_family.get(request.url.host)
        if family is None:
            return not_found()
        return html_response(self._page_for(request.url.host, family))

    def _page_for(self, host: str, family: _TemplateFamily) -> PageContent:
        page = self._page_cache.get(host)
        if page is None:
            page = PageContent(
                title=_page_title(family.kind, host),
                document=_page_document(family.kind, host),
                scripts=_page_scripts(family.kind, host),
                visual=VisualSpec(
                    template_key=family.template_key,
                    variant=derive(0, "benign-variant", host),
                    noise_level=0.02,
                ),
                labels={"kind": family.kind.value, "host": host},
            )
            self._page_cache[host] = page
        return page


def _page_title(kind: BenignKind, host: str) -> str:
    if kind is BenignKind.PARKED:
        return f"{host} — domain is for sale"
    if kind is BenignKind.SHORTENER:
        return "Please wait... skip ad in 5s"
    if kind is BenignKind.STOCK_ADULT:
        return "Exclusive gallery — enter now"
    return f"Welcome to {host}"


def _page_document(kind: BenignKind, host: str):
    """Per-kind DOM structure.

    These shapes are what the parked-domain detector
    (:mod:`repro.analysis.parking`) keys on: parking lander pages are a
    grid of "related searches" links with no first-party scripts, while
    real advertiser pages carry content imagery and analytics.
    """
    from repro.dom.nodes import anchor

    root = div(width=1280, height=800)
    if kind is BenignKind.PARKED:
        # Related-searches link farm pointing at the parking feed.
        for index in range(6):
            root.append(
                anchor(
                    f"http://feed.parkingzone.com/search?q=topic{index}&d={host}",
                    width=300,
                    height=40,
                )
            )
        return root
    if kind is BenignKind.STOCK_ADULT:
        for index in range(4):
            root.append(img(f"stock{index}.jpg", 420, 300))
        return root
    if kind is BenignKind.SHORTENER:
        root.append(img("framed-ad.jpg", 728, 90))
        root.append(anchor("http://destination.example.com/", width=120, height=40))
        return root
    # Ordinary advertiser landing page.
    root.append(img("banner.jpg", 700, 400))
    root.append(img("product.jpg", 300, 300))
    return root


def _page_scripts(kind: BenignKind, host: str) -> list:
    from repro.js.api import Beacon, Script

    if kind is BenignKind.ADVERTISER:
        # Legitimate advertisers run analytics.
        return [
            Script(
                ops=(Beacon(f"http://analytics.trackzone.net/px?site={host}"),),
                url=f"http://analytics.trackzone.net/ga.js",
                source_text="window.ga=window.ga||function(){};",
            )
        ]
    if kind is BenignKind.SHORTENER:
        return [
            Script(
                ops=(),
                url=None,
                source_text="var countdown=5;setInterval(function(){countdown--;},1000);",
            )
        ]
    # Parked and stock pages are static placeholders: no scripts at all.
    return []
