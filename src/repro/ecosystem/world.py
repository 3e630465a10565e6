"""World builder: the complete simulated ad ecosystem.

``build_world(WorldConfig(...))`` constructs a deterministic internet —
DNS, publishers, ad networks, SEACMA campaigns, the benign web, and the
external services (PublicWWW, WebPulse, GSB, VirusTotal, filter lists) —
entirely from one integer seed.  The measurement pipeline
(:mod:`repro.core`) then runs against it exactly as the paper's system
ran against the live web.

Scaling: the paper's magnitudes (93,427 publishers, 108 campaigns) are
the ``paper_scale`` preset; smaller presets preserve the *ratios* that
the reproduced tables depend on (per-network SE rates, category shares,
domain churn per crawl window) while shrinking population sizes.

Materialization: ``build_world`` runs a cheap skeleton pass (publisher
domains, ranks, categories, network assignments, DNS registrations) and
materializes pages on demand through the directory's bounded cache
instead of retaining every :class:`PublisherSite` for the life of the
run; see ``DESIGN.md`` ("World materialization").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.adnet.serving import AdNetworkServer
from repro.adnet.spec import DISCOVERABLE_NETWORK_SPECS, SEED_NETWORK_SPECS
from repro.attacks.campaign import Campaign, CampaignServer
from repro.attacks.categories import (
    AttackCategory,
    CATEGORY_PROFILES,
    category_order,
)
from repro.clock import DAY, SimClock
from repro.ecosystem.adblock import FilterList, build_filter_list
from repro.ecosystem.benign import BenignWeb
from repro.ecosystem.gsb import GoogleSafeBrowsing
from repro.ecosystem.materialize import SiteRecord, SiteSequence
from repro.ecosystem.publicwww import PublicWWW
from repro.ecosystem.publisher import PublisherDirectory, PublisherSite
from repro.ecosystem.virustotal import VirusTotal
from repro.ecosystem.webpulse import WebPulse, sample_category
from repro.errors import WorldConfigError
from repro.faults.plan import FaultConfig, FaultPlan
from repro.net.ipspace import VantagePoint, institution_vantage, residential_vantages
from repro.net.network import Internet
from repro.rng import rng_for, weighted_choice
from repro.urlkit.domains import DomainGenerator


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of the simulated ecosystem."""

    seed: int = 7
    #: Publisher sites discoverable by reversing the 11 seed networks.
    n_publishers: int = 900
    #: Extra publishers that only host the three *discoverable* networks
    #: (the +8,981 sites of §4.4); defaults to the paper's ratio.
    n_new_publishers: int | None = None
    #: SEACMA campaigns across all categories.
    n_campaigns: int = 24
    #: Virtual length of the crawling window; domain-rotation lifetimes
    #: are calibrated so each campaign burns through its category's
    #: domains-per-window quota within this window.
    crawl_window_days: float = 3.0
    #: Virtual time spent per crawling session (the paper used ~2 min).
    session_seconds: float = 120.0
    #: Cap on per-network code domains (None = the spec's real count).
    max_code_domains: int | None = None
    #: Benign-web sizing.
    n_advertisers: int = 120
    n_parking_providers: int = 11
    n_stock_sets: int = 6
    #: How many networks a publisher may stack (inclusive range).
    networks_per_publisher: tuple[int, int] = (1, 3)
    #: How many networks distribute one campaign (inclusive range).
    networks_per_campaign: tuple[int, int] = (1, 3)
    #: Fraction of impressions each network resells to partner exchanges
    #: (§3.5's ad-exchange/syndication complication; 0 disables).
    syndication_prob: float = 0.1
    #: Per-fetch probability of an injected transient infrastructure
    #: fault (DNS timeouts, connection timeouts, 5xx, slow/truncated
    #: responses, tab/session crashes); 0 disables fault injection.
    fault_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.n_publishers < 1 or self.n_campaigns < 6:
            raise WorldConfigError(
                "need at least 1 publisher and 6 campaigns (one per category)"
            )
        if self.crawl_window_days <= 0 or self.session_seconds <= 0:
            raise WorldConfigError("durations must be positive")
        low, high = self.networks_per_publisher
        if not 1 <= low <= high:
            raise WorldConfigError("invalid networks_per_publisher range")
        low, high = self.networks_per_campaign
        if not 1 <= low <= high:
            raise WorldConfigError("invalid networks_per_campaign range")
        if not 0.0 <= self.syndication_prob <= 1.0:
            raise WorldConfigError("syndication_prob must be in [0, 1]")
        if not 0.0 <= self.fault_rate < 1.0:
            raise WorldConfigError("fault_rate must be in [0, 1)")

    @property
    def resolved_new_publishers(self) -> int:
        """The new-publisher count, defaulted to the paper's ratio."""
        if self.n_new_publishers is not None:
            return self.n_new_publishers
        return max(5, round(self.n_publishers * 8981 / 93427))

    # ------------------------------------------------------------- presets

    @classmethod
    def tiny(cls, seed: int = 7, **overrides: Any) -> "WorldConfig":
        """Unit-test scale: seconds to build and crawl.

        Extra keyword arguments override any field of the preset, e.g.
        ``WorldConfig.tiny(fault_rate=0.05)``.
        """
        settings: dict[str, Any] = dict(
            seed=seed,
            n_publishers=120,
            n_campaigns=12,
            crawl_window_days=1.0,
            max_code_domains=25,
            n_advertisers=40,
            n_parking_providers=4,
            n_stock_sets=3,
        )
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def small(cls, seed: int = 7, **overrides: Any) -> "WorldConfig":
        """Benchmark scale: stable ratios, sub-minute runs."""
        return cls(seed=seed, **overrides)

    @classmethod
    def paper_scale(cls, seed: int = 7, **overrides: Any) -> "WorldConfig":
        """The paper's magnitudes (slow; hours of compute)."""
        settings: dict[str, Any] = dict(
            seed=seed,
            n_publishers=93_427,
            n_campaigns=108,
            crawl_window_days=14.0,
            n_advertisers=4_000,
        )
        settings.update(overrides)
        return cls(**settings)


class World:
    """The built ecosystem: everything the pipeline can touch."""

    def __init__(self, config: WorldConfig) -> None:
        self.config = config
        self.clock = SimClock()
        fault_plan = None
        if config.fault_rate > 0.0:
            fault_plan = FaultPlan(
                FaultConfig.at_rate(config.fault_rate), seed=config.seed
            )
        self.internet = Internet(self.clock, fault_plan=fault_plan)
        self.vantage_institution: VantagePoint = institution_vantage(config.seed)
        self.vantages_residential: list[VantagePoint] = residential_vantages(config.seed)
        self.benign: BenignWeb = BenignWeb(
            config.seed,
            n_advertisers=config.n_advertisers,
            n_parking_providers=config.n_parking_providers,
            n_stock_sets=config.n_stock_sets,
        )
        self.networks: dict[str, AdNetworkServer] = {}
        self.seed_networks: list[AdNetworkServer] = []
        self.discoverable_networks: list[AdNetworkServer] = []
        self.campaigns: list[Campaign] = []
        self.campaign_servers: dict[str, CampaignServer] = {}
        # The directory shares the live ``networks`` dict: servers are
        # registered into it before publishers exist, so site views
        # can always resolve their network keys.
        self.publisher_directory = PublisherDirectory(
            config.seed, network_servers=self.networks
        )
        self.publishers: Sequence[PublisherSite] = []
        self.new_publishers: Sequence[PublisherSite] = []
        self.webpulse = WebPulse()
        self.gsb = GoogleSafeBrowsing(config.seed)
        self.virustotal = VirusTotal(config.seed)
        self.publicwww: PublicWWW | None = None  # built after publishers
        self.filter_list: FilterList | None = None
        #: attack domain -> campaign key (ground truth, filled by hook)
        self.attack_domain_owner: dict[str, str] = {}

    # ------------------------------------------------------- ground truth

    def campaign_by_key(self, key: str) -> Campaign:
        """Look up a campaign by its key."""
        for campaign in self.campaigns:
            if campaign.key == key:
                return campaign
        raise KeyError(key)

    def kind_of_host(self, host: str) -> str:
        """Ground-truth class of any simulated host (for evaluation only).

        One of: ``se-attack``, ``se-tds``, ``se-customer``, ``publisher``,
        ``adnet``, a :class:`BenignKind` value, or ``unknown``.
        """
        if host in self.attack_domain_owner:
            return "se-attack"
        for campaign in self.campaigns:
            if host == campaign.tds_domain:
                return "se-tds"
            if campaign.customer_url is not None and host in campaign.customer_url:
                return "se-customer"
            if host in campaign.all_attack_domains():
                return "se-attack"
        benign_kind = self.benign.kind_of_host(host)
        if benign_kind is not None:
            return benign_kind.value
        for network in self.networks.values():
            if host in network.code_domains:
                return "adnet"
        if host in self.publisher_directory:
            return "publisher"
        return "unknown"

    def self_check(self) -> list[str]:
        """Validate the built world's structural invariants.

        Returns a list of human-readable issues (empty when healthy).
        Checked: every category represented; every campaign's TDS (and
        push backend, if any) resolves and redirects to a live attack
        page; every network has inventory and registered code domains;
        every publisher resolves and embeds at least one snippet; the
        service layer is wired up.
        """
        issues: list[str] = []
        now = self.clock.now()
        categories = {campaign.category for campaign in self.campaigns}
        for category in AttackCategory:
            if category not in categories:
                issues.append(f"no campaign for category {category.value!r}")
        for campaign in self.campaigns:
            if not self.internet.host_alive(campaign.tds_domain):
                issues.append(f"{campaign.key}: TDS {campaign.tds_domain} dead")
            if campaign.push_domain and not self.internet.host_alive(campaign.push_domain):
                issues.append(f"{campaign.key}: push host {campaign.push_domain} dead")
            if not self.internet.host_alive(campaign.active_attack_domain(now)):
                issues.append(f"{campaign.key}: active attack domain unresolvable")
        for server in self.networks.values():
            if not server.campaigns():
                issues.append(f"network {server.spec.name} has empty inventory")
            for domain in server.code_domains[:3]:
                if not self.internet.host_alive(domain):
                    issues.append(f"network {server.spec.name}: code domain {domain} dead")
        for site in self.publishers[:50]:
            if not self.internet.host_alive(site.domain):
                issues.append(f"publisher {site.domain} unresolvable")
            if not site.networks:
                issues.append(f"publisher {site.domain} embeds no ad networks")
        if self.publicwww is None:
            issues.append("PublicWWW index not built")
        if self.filter_list is None:
            issues.append("filter list not built")
        return issues


def build_world(config: WorldConfig | None = None) -> World:
    """Build the full deterministic ecosystem.

    Publisher pages materialize on demand through a bounded cache, so
    memory stays flat in the population size.
    """
    config = config if config is not None else WorldConfig()
    world = World(config)
    _build_benign(world)
    _build_networks(world)
    _build_campaigns(world)
    _assign_campaigns_to_networks(world)
    _build_publishers(world)
    world.publicwww = PublicWWW(world.publisher_directory, config.seed)
    world.filter_list = build_filter_list(list(world.networks.values()))
    return world


# ----------------------------------------------------------------- stages


def _build_benign(world: World) -> None:
    for host in world.benign.all_hosts():
        world.internet.register(host, world.benign)
    # Dead hosts are deliberately NOT registered: they NXDOMAIN.


def _build_networks(world: World) -> None:
    config = world.config
    picker = world.benign.pick_url
    for spec in SEED_NETWORK_SPECS:
        server = AdNetworkServer(
            spec, config.seed, picker, max_code_domains=config.max_code_domains
        )
        world.networks[spec.key] = server
        world.seed_networks.append(server)
    for spec in DISCOVERABLE_NETWORK_SPECS:
        server = AdNetworkServer(
            spec, config.seed, picker, max_code_domains=config.max_code_domains
        )
        world.networks[spec.key] = server
        world.discoverable_networks.append(server)
    for server in world.networks.values():
        for domain in server.code_domains:
            world.internet.register(domain, server)
    # Syndication graph: each seed network resells a slice of traffic to
    # two peer exchanges (deterministic ring, so worlds stay reproducible).
    if config.syndication_prob > 0 and len(world.seed_networks) >= 3:
        ring = world.seed_networks
        for index, server in enumerate(ring):
            server.add_syndication_partner(
                ring[(index + 1) % len(ring)], config.syndication_prob
            )
            server.add_syndication_partner(
                ring[(index + 3) % len(ring)], config.syndication_prob
            )


def _campaign_counts(config: WorldConfig) -> dict[AttackCategory, int]:
    """Apportion campaigns to categories (largest remainder, min 1 each)."""
    categories = category_order()
    counts = {category: 1 for category in categories}
    remaining = config.n_campaigns - len(categories)
    shares = {
        category: CATEGORY_PROFILES[category].campaign_share for category in categories
    }
    quotas = {category: remaining * shares[category] for category in categories}
    for category in categories:
        counts[category] += int(quotas[category])
    leftover = config.n_campaigns - sum(counts.values())
    by_remainder = sorted(
        categories, key=lambda c: quotas[c] - int(quotas[c]), reverse=True
    )
    for category in by_remainder[:leftover]:
        counts[category] += 1
    return counts


def _build_campaigns(world: World) -> None:
    config = world.config
    window_seconds = config.crawl_window_days * DAY
    counts = _campaign_counts(config)
    index = 0
    for category in category_order():
        profile = CATEGORY_PROFILES[category]
        mean_life = window_seconds / profile.domains_per_window
        lifetime = (0.6 * mean_life, 1.4 * mean_life)
        for _ in range(counts[category]):
            key = f"{category.name.lower()}-{index:03d}"
            campaign = Campaign(
                key,
                category,
                config.seed,
                domain_lifetime=lifetime,
            )
            server = CampaignServer(campaign)
            world.campaigns.append(campaign)
            world.campaign_servers[key] = server
            world.internet.register(campaign.tds_domain, server)
            if campaign.push_domain is not None:
                world.internet.register(campaign.push_domain, server)
            world.internet.add_claimant(server)
            if campaign.customer_url is not None:
                customer_host = campaign.customer_url.split("//")[1].split("/")[0]
                if not world.internet.dns.is_registered(customer_host):
                    world.benign.adopt_host(customer_host)
                    world.internet.register(customer_host, world.benign)
            _install_gsb_hook(world, campaign)
            index += 1


def _install_gsb_hook(world: World, campaign: Campaign) -> None:
    def hook(campaign_key: str, domain: str, activated_at: float) -> None:
        world.attack_domain_owner[domain] = campaign_key
        world.gsb.observe_attack_domain(campaign, domain, activated_at)

    campaign.set_new_domain_hook(hook)


def _assign_campaigns_to_networks(world: World) -> None:
    config = world.config
    rng: random.Random = rng_for(config.seed, "campaign-assignment")
    all_servers = list(world.networks.values())
    weights = [server.spec.volume_weight for server in all_servers]
    low, high = config.networks_per_campaign
    for campaign in world.campaigns:
        count = rng.randint(low, min(high, len(all_servers)))
        chosen: list[AdNetworkServer] = []
        while len(chosen) < count:
            server = weighted_choice(rng, all_servers, weights)
            if server not in chosen:
                chosen.append(server)
        for server in chosen:
            server.add_campaign(campaign, weight=campaign.serving_weight)
    # Every network with a positive SE rate needs some inventory, or its
    # Table 3 row would be structurally zero.
    for server in all_servers:
        if server.spec.se_rate > 0 and not server.campaigns():
            campaign = rng.choice(world.campaigns)
            server.add_campaign(campaign, weight=campaign.serving_weight)


def _publisher_skeletons(world: World) -> Iterator[tuple[SiteRecord, bool]]:
    """The sequential publisher-generation pass, as a record stream.

    Yields ``(record, is_new)`` per publisher.  This pass must stay
    sequential: every draw consumes the one ``(seed, "publishers")`` RNG
    stream, and domain uniqueness is enforced against the live DNS
    registry, so the Nth publisher's identity depends on all N-1 before
    it.  It is also cheap — a record, a DNS entry and a WebPulse category
    per site — so it scales to any population; the heavy page artifacts
    are derived later, on demand.
    """
    config = world.config
    rng: random.Random = rng_for(config.seed, "publishers")
    generator = DomainGenerator(config.seed, "publishers")
    seed_servers = world.seed_networks
    seed_weights = [server.spec.volume_weight for server in seed_servers]
    low, high = config.networks_per_publisher

    def fresh_domain() -> str:
        # Regenerate on the (rare) cross-generator name collision.
        while True:
            domain = (
                generator.word_salad()
                if rng.random() < 0.7
                else generator.dga(tld="com")
            )
            if not world.internet.dns.is_registered(domain):
                return domain

    def make_record(domain: str, networks: list[AdNetworkServer]) -> SiteRecord:
        category = sample_category(rng)
        # Heavy-tailed popularity: a handful of popular sites (§4.3 found
        # 4 publishers in the top 1k and 52 in the top 10k).
        rank = int(10 ** rng.uniform(2.0, 6.7))
        record = SiteRecord(
            domain=domain,
            rank=rank,
            category=category,
            network_keys=tuple(server.spec.key for server in networks),
        )
        world.internet.register(domain, world.publisher_directory)
        world.webpulse.learn(domain, category)
        return record

    discoverable = world.discoverable_networks
    for _ in range(config.n_publishers):
        count = rng.randint(low, min(high, len(seed_servers)))
        networks: list[AdNetworkServer] = []
        while len(networks) < count:
            server = weighted_choice(rng, seed_servers, seed_weights)
            if server not in networks:
                networks.append(server)
        # Greedy publishers also pick up networks outside our seed list —
        # the source of the "Unknown" attributions of Table 3.
        if discoverable and rng.random() < 0.15:
            networks.append(rng.choice(discoverable))
        yield make_record(fresh_domain(), networks), False

    discoverable_weights = [server.spec.volume_weight for server in discoverable]
    for _ in range(config.resolved_new_publishers):
        count = rng.randint(1, min(2, len(discoverable)))
        networks = []
        while len(networks) < count:
            server = weighted_choice(rng, discoverable, discoverable_weights)
            if server not in networks:
                networks.append(server)
        yield make_record(fresh_domain(), networks), True


def _build_publishers(world: World) -> None:
    directory = world.publisher_directory
    regular: list[str] = []
    fresh: list[str] = []
    for record, is_new in _publisher_skeletons(world):
        directory.add_record(record)
        (fresh if is_new else regular).append(record.domain)
    world.publishers = SiteSequence(directory, tuple(regular))
    world.new_publishers = SiteSequence(directory, tuple(fresh))
