"""Publisher websites.

Publishers are the 93k sites of §3.1: ordinary websites (streaming,
games, blogs, ...) that embed one or more low-tier ad-network snippets
for revenue.  "Greedy" publishers stack several networks on the same
page, which is why repeated clicks at the same spot yield ads from
different networks (§3.2).

The :class:`PublisherDirectory` answers every publisher query from a
compact :class:`~repro.ecosystem.materialize.SiteRecord` table.  Sites
are transient views materialized on access and pages live in a bounded
LRU (:class:`~repro.ecosystem.materialize.PageCache`); eviction is safe
because page derivation is a pure function of ``(seed, domain)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.adnet.serving import AdNetworkServer
from repro.adnet.snippets import AdTactic, build_snippet, choose_tactic
from repro.dom.nodes import div, iframe, img
from repro.dom.page import PageContent, VisualSpec
from repro.ecosystem.materialize import (
    DEFAULT_PAGE_CACHE_SIZE,
    MaterializationStats,
    PageCache,
    SiteRecord,
)
from repro.net.http import HttpRequest, HttpResponse, html_response, not_found
from repro.net.server import FetchContext, VirtualServer
from repro.rng import derive, rng_for


@dataclass
class PublisherSite:
    """One ad-publishing website."""

    domain: str
    rank: int
    category: str
    #: The networks whose snippets the page embeds, in snippet order.
    networks: list[AdNetworkServer] = field(default_factory=list)

    @property
    def url(self) -> str:
        """The site's front-page URL."""
        return f"http://{self.domain}/"

    def network_names(self) -> list[str]:
        """Names of the embedded ad networks."""
        return [server.spec.name for server in self.networks]

    def uses_network(self, key: str) -> bool:
        """Whether the site embeds the named network's snippet."""
        return any(server.spec.key == key for server in self.networks)


def derive_publisher_page(site: PublisherSite, seed: int) -> PageContent:
    """Derive a publisher's front page — a pure function of ``(seed, domain)``.

    Every RNG stream consumed here is labeled by the site's domain (and,
    per snippet, the network key), so the derived page is identical no
    matter when, where, or how many times it is built — the property the
    page cache's eviction relies on.
    """
    rng: random.Random = rng_for(seed, "publisher-page", site.domain)
    root = div(width=1280, height=800, attrs={"id": "content"})
    # Native content: a few images/iframes of varying prominence.
    for index in range(rng.randint(2, 5)):
        width = rng.randint(200, 900)
        height = rng.randint(120, 500)
        if rng.random() < 0.2:
            root.append(iframe(f"embed{index}.html", width, height))
        else:
            root.append(img(f"content{index}.jpg", width, height))
    scripts = []
    for server in site.networks:
        snippet_rng = rng_for(seed, "snippet", site.domain, server.spec.key)
        code_domain = server.pick_code_domain(snippet_rng)
        click_url = server.click_url(code_domain, publisher_id=site.domain)
        tactic: AdTactic = choose_tactic(snippet_rng)
        scripts.append(build_snippet(server.spec, code_domain, click_url, tactic, snippet_rng))
    return PageContent(
        title=site.domain,
        document=root,
        scripts=scripts,
        visual=VisualSpec(
            template_key=f"publisher/{site.category}",
            variant=derive(0, "publisher-variant", site.domain),
            noise_level=0.02,
        ),
        labels={"kind": "publisher", "category": site.category},
    )


class PublisherDirectory(VirtualServer):
    """Serves every publisher site from one virtual server.

    Keeps only the record table: :meth:`add_record` registers a skeleton,
    and ``network_servers`` rebuild site views from it on demand.
    """

    def __init__(
        self,
        seed: int,
        network_servers: dict[str, AdNetworkServer] | None = None,
        page_cache_size: int = DEFAULT_PAGE_CACHE_SIZE,
    ) -> None:
        self._seed = seed
        self._network_servers = network_servers if network_servers is not None else {}
        self._records: dict[str, SiteRecord] = {}
        self.stats = MaterializationStats()
        self._cache = PageCache(page_cache_size, stats=self.stats, chaos=True)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, domain: str) -> bool:
        return domain in self._records

    def add_record(self, record: SiteRecord) -> None:
        """Register a publisher skeleton."""
        if record.domain in self._records:
            raise ValueError(f"duplicate publisher {record.domain}")
        self._records[record.domain] = record

    def record(self, domain: str) -> SiteRecord:
        """The skeleton record of a registered domain."""
        return self._records[domain]

    def rank_of(self, domain: str) -> int:
        """A registered domain's popularity rank (no materialization)."""
        return self._records[domain].rank

    def network_keys_of(self, domain: str) -> tuple[str, ...]:
        """A registered domain's embedded network keys (no materialization)."""
        return self._records[domain].network_keys

    def network_servers(self) -> dict[str, "AdNetworkServer"]:
        """The ad-network servers this directory rebuilds sites from."""
        return self._network_servers

    def domains(self) -> tuple[str, ...]:
        """All registered domains, in insertion order."""
        return tuple(self._records)

    def get(self, domain: str) -> PublisherSite:
        """Look up a site by domain.

        Returns a transient view rebuilt from the record (equal by value,
        never retained by the directory).
        """
        return self._site_view(self._records[domain])

    def sites(self) -> list[PublisherSite]:
        """All sites, in insertion order (materializes every view)."""
        return [self.get(domain) for domain in self._records]

    def page_of(self, domain: str) -> PageContent:
        """The domain's front page, via the bounded page cache."""
        record = self._records[domain]
        return self._cache.get(
            domain, lambda: derive_publisher_page(self._site_view(record), self._seed)
        )

    def source_of(self, domain: str) -> str:
        """The domain's page source (what PublicWWW indexes)."""
        return self.page_of(domain).source_text()

    def _site_view(self, record: SiteRecord) -> PublisherSite:
        missing = [key for key in record.network_keys if key not in self._network_servers]
        if missing:
            raise KeyError(
                f"publisher {record.domain} references unknown ad networks "
                f"{missing}; pass network_servers= to PublisherDirectory"
            )
        return PublisherSite(
            domain=record.domain,
            rank=record.rank,
            category=record.category,
            networks=[self._network_servers[key] for key in record.network_keys],
        )

    def handle(self, request: HttpRequest, context: FetchContext) -> HttpResponse:
        if request.url.host not in self._records:
            return not_found()
        return html_response(self.page_of(request.url.host))
