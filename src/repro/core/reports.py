"""Report generation: the paper's tables and headline statistics.

Each ``tableN`` function computes the corresponding table of the paper
from pipeline outputs; ``render_table`` pretty-prints any of them.  The
benchmarks print these tables so every reproduced artifact is visible in
benchmark output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.adnet.serving import AdNetworkServer
from repro.attacks.categories import category_order
from repro.core.attribution import AttributionResult
from repro.core.discovery import DiscoveryResult
from repro.core.farm import CrawlDataset
from repro.core.milking import MilkingReport
from repro.ecosystem.gsb import GoogleSafeBrowsing
from repro.ecosystem.webpulse import WebPulse
from repro.faults.stats import FaultStats


# --------------------------------------------------------------- Table 1


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1: SE ad campaign statistics per category."""

    category: str
    se_attacks: int
    attack_domains: int
    se_campaigns: int
    gsb_domains_pct: float
    gsb_campaigns_pct: float


def table1(
    discovery: DiscoveryResult, gsb: GoogleSafeBrowsing, at: float
) -> list[Table1Row]:
    """Compute Table 1 from discovery output and the blacklist state."""
    rows: list[Table1Row] = []
    for category in category_order():
        clusters = [
            cluster
            for cluster in discovery.seacma_campaigns
            if cluster.category is category
        ]
        if not clusters:
            rows.append(Table1Row(category.value, 0, 0, 0, 0.0, 0.0))
            continue
        attacks = sum(cluster.attack_count for cluster in clusters)
        domains: set[str] = set()
        for cluster in clusters:
            domains.update(cluster.distinct_e2lds)
        listed = {domain for domain in domains if gsb.lookup(domain, at)}
        campaigns_detected = 0
        for cluster in clusters:
            if any(domain in listed for domain in cluster.distinct_e2lds):
                campaigns_detected += 1
        rows.append(
            Table1Row(
                category=category.value,
                se_attacks=attacks,
                attack_domains=len(domains),
                se_campaigns=len(clusters),
                gsb_domains_pct=100.0 * len(listed) / len(domains),
                gsb_campaigns_pct=100.0 * campaigns_detected / len(clusters),
            )
        )
    return rows


# --------------------------------------------------------------- Table 2


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2: publisher categories hosting SEACMA ads."""

    category: str
    publisher_domains: int
    pct_of_total: float


def table2(
    discovery: DiscoveryResult, webpulse: WebPulse, top: int = 20
) -> list[Table2Row]:
    """Categorize the publishers whose ads led to SE attacks."""
    publishers = {
        record.publisher_domain
        for record in discovery.se_interactions()
        if record.publisher_domain
    }
    counts: Counter = Counter(
        webpulse.categorize(domain) for domain in publishers
    )
    total = sum(counts.values()) or 1
    # ``most_common`` breaks count ties by Counter insertion order, which
    # here follows set iteration — hash-randomized across processes.  The
    # report must be byte-identical run to run, so ties sort by name.
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    rows = [
        Table2Row(category=name, publisher_domains=count, pct_of_total=100.0 * count / total)
        for name, count in ranked[:top]
    ]
    return rows


# --------------------------------------------------------------- Table 3


@dataclass(frozen=True)
class Table3Row:
    """One row of Table 3: SE attacks served per ad network."""

    network: str
    network_domains: int
    landing_pages: int
    se_attack_pages: int
    se_pct: float


def table3(
    attribution: AttributionResult,
    discovery: DiscoveryResult,
    networks: dict[str, AdNetworkServer],
    order: list[str] | None = None,
) -> list[Table3Row]:
    """Compute Table 3: per-network landing/SE-attack volumes.

    A landing page counts as an SE attack page if its interaction belongs
    to a confirmed SEACMA cluster.
    """
    se_rows = set(discovery.se_rows())
    by_network = attribution.rows_by_network()
    rows: list[Table3Row] = []
    keys = order if order is not None else sorted(
        by_network, key=lambda key: -len(by_network[key])
    )
    for key in keys:
        records = by_network.get(key, [])
        se_count = sum(1 for row in records if row in se_rows)
        server = networks.get(key)
        rows.append(
            Table3Row(
                network=server.spec.name if server else key,
                network_domains=len(server.code_domains) if server else 0,
                landing_pages=len(records),
                se_attack_pages=se_count,
                se_pct=100.0 * se_count / len(records) if records else 0.0,
            )
        )
    unknown = attribution.unknown_rows()
    unknown_se = sum(1 for row in unknown if row in se_rows)
    rows.append(
        Table3Row(
            network="Unknown",
            network_domains=0,
            landing_pages=len(unknown),
            se_attack_pages=unknown_se,
            se_pct=100.0 * unknown_se / len(unknown) if unknown else 0.0,
        )
    )
    return rows


# --------------------------------------------------------------- Table 4


@dataclass(frozen=True)
class Table4Row:
    """One row of Table 4: milking-phase GSB detection per category."""

    category: str
    domains: int
    gsb_init_pct: float
    gsb_final_pct: float


def table4(report: MilkingReport) -> list[Table4Row]:
    """Compute Table 4 from the milking report."""
    rows: list[Table4Row] = []
    groups = report.domains_by_category()
    for category in category_order():
        domains = groups.get(category, [])
        if not domains:
            continue
        rows.append(
            Table4Row(
                category=category.value,
                domains=len(domains),
                gsb_init_pct=100.0 * report.gsb_init_rate(domains),
                gsb_final_pct=100.0 * report.gsb_final_rate(domains),
            )
        )
    rows.append(
        Table4Row(
            category="All",
            domains=len(report.domains),
            gsb_init_pct=100.0 * report.gsb_init_rate(),
            gsb_final_pct=100.0 * report.gsb_final_rate(),
        )
    )
    return rows


# ----------------------------------------------------- fault health report


@dataclass(frozen=True)
class FaultHealthRow:
    """One counter of the fault-injection / recovery health report."""

    counter: str
    count: int


def fault_health(stats: FaultStats) -> list[FaultHealthRow]:
    """Render-ready rows for every fault and recovery counter.

    Per-kind injection counts come first (sorted by kind name), followed
    by the recovery-machinery counters, so a glance shows both what the
    world threw at the pipeline and what the pipeline absorbed.
    """
    rows = [
        FaultHealthRow(counter=f"injected {kind}", count=count)
        for kind, count in sorted(stats.injected.items())
    ]
    rows.append(FaultHealthRow("faults injected (total)", stats.faults_injected))
    rows.append(FaultHealthRow("fetch retries", stats.retries))
    rows.append(FaultHealthRow("fetches recovered", stats.recovered_fetches))
    rows.append(FaultHealthRow("fetches failed", stats.failed_fetches))
    rows.append(FaultHealthRow("breaker trips", stats.breaker_trips))
    rows.append(FaultHealthRow("breaker fast-fails", stats.breaker_fast_fails))
    rows.append(FaultHealthRow("sessions crashed", stats.sessions_crashed))
    rows.append(FaultHealthRow("sessions resumed", stats.sessions_resumed))
    rows.append(FaultHealthRow("sessions lost", stats.sessions_lost))
    rows.append(FaultHealthRow("milk retries scheduled", stats.milk_reschedules))
    return rows


# ------------------------------------------------------------ §6 ethics


@dataclass(frozen=True)
class EthicsCost:
    """Estimated advertiser cost caused by the crawl (§6)."""

    worst_case_clicks: int
    worst_case_cost_usd: float
    mean_clicks_per_domain: float
    mean_cost_per_domain_usd: float
    legit_domains: int


def ethics_cost(
    dataset: CrawlDataset,
    discovery: DiscoveryResult,
    cpm_usd: float = 4.0,
) -> EthicsCost:
    """Per-advertiser click-cost accounting over non-SE landing domains."""
    se_domains: set[str] = set()
    for cluster in discovery.seacma_campaigns:
        se_domains.update(cluster.distinct_e2lds)
    legit = {
        domain: count
        for domain, count in dataset.landing_click_counts.items()
        if domain not in se_domains
    }
    if not legit:
        return EthicsCost(0, 0.0, 0.0, 0.0, 0)
    cost_per_click = cpm_usd / 1000.0
    worst_clicks = max(legit.values())
    mean_clicks = sum(legit.values()) / len(legit)
    return EthicsCost(
        worst_case_clicks=worst_clicks,
        worst_case_cost_usd=worst_clicks * cost_per_click,
        mean_clicks_per_domain=mean_clicks,
        mean_cost_per_domain_usd=mean_clicks * cost_per_click,
        legit_domains=len(legit),
    )


# ------------------------------------------------- offline regeneration


# ------------------------------------------------------------ rendering


def render_table(rows: list, title: str = "") -> str:
    """ASCII-render a list of table-row dataclasses."""
    if not rows:
        return f"{title}\n(empty)"
    fields = list(rows[0].__dataclass_fields__)
    headers = [name.replace("_", " ") for name in fields]
    cells = [
        [_format_cell(getattr(row, name)) for name in fields] for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        for i in range(len(fields))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(fields))))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(fields))))
    return "\n".join(lines)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
