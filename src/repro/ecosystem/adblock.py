"""AdBlock-Plus-style filter lists.

§4.4 pilot: with the newest Chrome plus AdBlock Plus, only Clicksor's
ads stopped displaying; the other ten networks kept serving malicious
ads.  The mechanism is domain churn: filter lists pin static domains, so
a network serving its snippet from one of 500+ rotating domains is only
partially covered, while Clicksor's four static domains are fully listed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adnet.serving import AdNetworkServer
from repro.urlkit.psl import e2ld
from repro.urlkit.url import Url, parse_url


@dataclass(frozen=True)
class FilterRule:
    """A ``||domain^``-style blocking rule (matches the whole e2LD)."""

    domain: str


class FilterList:
    """An ordered set of blocking rules."""

    def __init__(self) -> None:
        self._rules: list[FilterRule] = []
        self._domains: set[str] = set()

    def __len__(self) -> int:
        return len(self._rules)

    def add_domain(self, domain: str) -> None:
        """Append a ``||domain^`` rule."""
        self._rules.append(FilterRule(domain))
        self._domains.add(e2ld(domain))

    def blocks(self, url: str | Url) -> bool:
        """Whether any rule blocks ``url``."""
        return e2ld(parse_url(url).host) in self._domains

    def blocks_network(self, network: AdNetworkServer) -> bool:
        """Whether the list blocks *every* serving domain of a network.

        A network whose snippet can still load from at least one unlisted
        domain keeps displaying ads; this is the §4.4 pilot's pass/fail
        criterion.
        """
        return all(
            self.blocks(f"http://{domain}/x.js") for domain in network.code_domains
        )

    def coverage_of_network(self, network: AdNetworkServer) -> float:
        """Fraction of the network's serving domains the list covers."""
        if not network.code_domains:
            return 0.0
        covered = sum(
            1 for domain in network.code_domains if self.blocks(f"http://{domain}/x.js")
        )
        return covered / len(network.code_domains)


def build_filter_list(networks: list[AdNetworkServer]) -> FilterList:
    """Build the EasyList-like list a real ABP install would carry.

    Filter-list maintainers enumerate the serving domains they have seen.
    Networks with a handful of *static* domains (Clicksor, PopMyAds, ...)
    get full coverage; networks rotating through hundreds of domains get
    only the first few historical ones: the maintainers have catalogued
    at most 40 domains per network.
    """
    filter_list = FilterList()
    for network in networks:
        domains = network.code_domains
        if network.spec.abp_blocked:
            for domain in domains:
                filter_list.add_domain(domain)
            continue
        # Partial, stale coverage: a prefix of the domain list, at most
        # the budget, and never all of them for rotating networks.
        if len(domains) > 1:
            take = min(40, max(0, len(domains) // 4))
            for domain in domains[:take]:
                filter_list.add_domain(domain)
    return filter_list
