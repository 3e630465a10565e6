"""Record codecs: typed schemas for every run-store stream.

Each pair of ``*_to_record`` / ``*_from_record`` functions defines the
JSON schema of one stream (or meta value) and its inverse.  The
``interactions`` stream uses the released-dataset codec
(:func:`~repro.core.crawler.interaction_to_dict` and its inverse), so it
is line-for-line the same shape as the published crawl dataset.

Campaign and attribution records reference interactions by *row index*
into the ``interactions`` stream instead of duplicating them — the store
holds each crawl record exactly once.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Iterable, Iterator

from repro.attacks.categories import AttackCategory
from repro.core.attribution import AttributionResult
from repro.core.crawler import AdInteraction
from repro.core.discovery import DiscoveredCampaign, DiscoveryResult
from repro.browser.useragent import PROFILES
from repro.core.farm import CrawlDataset, PlanEntry
from repro.core.milking import MilkedDomain, MilkedFile, MilkingReport
from repro.core.rows import StoredInteractions
from repro.core.seeds import InvariantPattern
from repro.ecosystem.virustotal import VtReport
from repro.ecosystem.world import WorldConfig
from repro.errors import StoreError
from repro.store.base import RunStore

# ---------------------------------------------------------- interactions


def hash_to_record(row: int, record: AdInteraction) -> dict[str, Any]:
    """One ``hashes`` stream record: the clustering view of a crawl row."""
    return {
        "row": row,
        "hash": f"{record.screenshot_hash:032x}",
        "e2ld": record.landing_e2ld,
    }


# ------------------------------------------------------------- campaigns


def campaign_to_record(campaign: DiscoveredCampaign) -> dict[str, Any]:
    """One ``campaigns`` stream record; members are stored by row."""
    return {
        "cluster_id": campaign.cluster_id,
        "label": campaign.label,
        "category": campaign.category.value if campaign.category else None,
        "pairs": [[f"{value:032x}", e2ld] for value, e2ld in campaign.pairs],
        "interaction_rows": list(campaign.rows),
    }


def campaign_from_record(data: dict[str, Any], store: RunStore) -> DiscoveredCampaign:
    """Inverse of :func:`campaign_to_record`; members read from ``store``."""
    return DiscoveredCampaign(
        cluster_id=data["cluster_id"],
        pairs=[(int(value, 16), e2ld) for value, e2ld in data["pairs"]],
        rows=list(data["interaction_rows"]),
        label=data["label"],
        category=AttackCategory(data["category"]) if data["category"] else None,
        store=store,
    )


def discovery_stats_to_meta(discovery: DiscoveryResult) -> dict[str, Any]:
    """The scalar half of a :class:`DiscoveryResult` (meta value)."""
    return {
        "eps": discovery.eps,
        "min_pts": discovery.min_pts,
        "theta_c": discovery.theta_c,
        "clusters_before_filter": discovery.clusters_before_filter,
        "noise_points": discovery.noise_points,
    }


def discovery_from_store(
    stats: dict[str, Any],
    campaign_records: Iterable[dict[str, Any]],
    store: RunStore,
) -> DiscoveryResult:
    """Rebuild a :class:`DiscoveryResult` from its persisted halves."""
    result = DiscoveryResult(
        eps=stats["eps"],
        min_pts=stats["min_pts"],
        theta_c=stats["theta_c"],
        clusters_before_filter=stats["clusters_before_filter"],
        noise_points=stats["noise_points"],
    )
    for record in campaign_records:
        result.campaigns.append(campaign_from_record(record, store))
    return result


# ------------------------------------------------------------ attribution


def attribution_to_records(attribution: AttributionResult) -> Iterator[dict[str, Any]]:
    """``attribution`` stream rows: ``(interaction row, network key|None)``,
    in crawl order."""
    for row, key in enumerate(attribution.keys):
        yield {"row": row, "network": key}


def attribution_from_records(
    rows: Iterable[dict[str, Any]], store: RunStore
) -> AttributionResult:
    """Rebuild an :class:`AttributionResult`; rows replay in crawl order,
    so per-network insertion order matches the original run."""
    keys: list[str | None] = []
    for item in rows:
        if item["row"] != len(keys):
            raise StoreError(
                f"attribution row {item['row']} out of order (expected "
                f"{len(keys)})"
            )
        keys.append(item["network"])
    return AttributionResult(keys=keys, store=store)


# ---------------------------------------------------------------- milking


def _vt_report_to_dict(report: VtReport | None) -> dict[str, Any] | None:
    if report is None:
        return None
    return {
        "sha256": report.sha256,
        "detections": report.detections,
        "total_engines": report.total_engines,
        "labels": list(report.labels),
        "first_seen": report.first_seen,
        "scanned_at": report.scanned_at,
    }


def _vt_report_from_dict(data: dict[str, Any] | None) -> VtReport | None:
    if data is None:
        return None
    return VtReport(
        sha256=data["sha256"],
        detections=data["detections"],
        total_engines=data["total_engines"],
        labels=tuple(data["labels"]),
        first_seen=data["first_seen"],
        scanned_at=data["scanned_at"],
    )


def milking_to_records(report: MilkingReport) -> list[dict[str, Any]]:
    """``milking`` stream rows: kind-tagged samples plus one summary."""
    rows: list[dict[str, Any]] = [
        {
            "kind": "summary",
            "sessions": report.sessions,
            "sources": report.sources,
            "started_at": report.started_at,
            "finished_at": report.finished_at,
            "final_lookup_at": report.final_lookup_at,
        }
    ]
    for domain in report.domains:
        rows.append(
            {
                "kind": "domain",
                "domain": domain.domain,
                "cluster_id": domain.cluster_id,
                "category": domain.category.value if domain.category else None,
                "discovered_at": domain.discovered_at,
                "last_seen_at": domain.last_seen_at,
                "listed_at_discovery": domain.listed_at_discovery,
                "observed_listed_at": domain.observed_listed_at,
                "listed_at_final": domain.listed_at_final,
            }
        )
    for file in report.files:
        rows.append(
            {
                "kind": "file",
                "sha256": file.sha256,
                "filename": file.filename,
                "cluster_id": file.cluster_id,
                "category": file.category.value if file.category else None,
                "downloaded_at": file.downloaded_at,
                "known_to_vt": file.known_to_vt,
                "initial_report": _vt_report_to_dict(file.initial_report),
                "rescan_report": _vt_report_to_dict(file.rescan_report),
            }
        )
    rows.extend({"kind": "phone", "value": phone} for phone in sorted(report.phones))
    rows.extend(
        {"kind": "gateway", "value": gateway} for gateway in sorted(report.gateways)
    )
    return rows


def milking_from_records(rows: list[dict[str, Any]]) -> MilkingReport:
    """Inverse of :func:`milking_to_records`."""
    report = MilkingReport()
    for item in rows:
        kind = item.get("kind")
        if kind == "summary":
            report.sessions = item["sessions"]
            report.sources = item["sources"]
            report.started_at = item["started_at"]
            report.finished_at = item["finished_at"]
            report.final_lookup_at = item["final_lookup_at"]
        elif kind == "domain":
            report.domains.append(
                MilkedDomain(
                    domain=item["domain"],
                    cluster_id=item["cluster_id"],
                    category=AttackCategory(item["category"])
                    if item["category"]
                    else None,
                    discovered_at=item["discovered_at"],
                    # Absent in stores written before the feed existed.
                    last_seen_at=item.get("last_seen_at", item["discovered_at"]),
                    listed_at_discovery=item["listed_at_discovery"],
                    observed_listed_at=item["observed_listed_at"],
                    listed_at_final=item["listed_at_final"],
                )
            )
        elif kind == "file":
            report.files.append(
                MilkedFile(
                    sha256=item["sha256"],
                    filename=item["filename"],
                    cluster_id=item["cluster_id"],
                    category=AttackCategory(item["category"])
                    if item["category"]
                    else None,
                    downloaded_at=item["downloaded_at"],
                    known_to_vt=item["known_to_vt"],
                    initial_report=_vt_report_from_dict(item["initial_report"]),
                    rescan_report=_vt_report_from_dict(item["rescan_report"]),
                )
            )
        elif kind == "phone":
            report.phones.add(item["value"])
        elif kind == "gateway":
            report.gateways.add(item["value"])
        else:
            raise StoreError(f"unknown milking record kind: {kind!r}")
    return report


# ------------------------------------------------------- crawl bookkeeping


def progress_to_record(
    entry: PlanEntry, clock: float, sessions: int, interaction_rows: int
) -> dict[str, Any]:
    """One ``progress`` stream record: plan entry ``entry`` finished.

    ``laptop_index`` is the residential-laptop slot after the entry's
    last session, which the plan fixes (0 for an institutional entry).
    """
    return {
        "domain": entry.domain,
        "residential": entry.residential,
        "laptop_index": (
            entry.residential_base + len(PROFILES) if entry.residential else 0
        ),
        "clock": clock,
        "sessions": sessions,
        "interaction_rows": interaction_rows,
    }


def crawl_summary_to_meta(dataset: CrawlDataset) -> dict[str, Any]:
    """The scalar/aggregate half of a finished :class:`CrawlDataset`."""
    return {
        "sessions": dataset.sessions,
        "publishers_visited": dataset.publishers_visited,
        "publishers_institutional": dataset.publishers_institutional,
        "publishers_residential": dataset.publishers_residential,
        "publishers_with_ads": sorted(dataset.publishers_with_ads),
        "landing_click_counts": dict(dataset.landing_click_counts),
        "residential_dropped": dataset.residential_dropped,
        "started_at": dataset.started_at,
        "finished_at": dataset.finished_at,
    }


def crawl_summary_from_meta(data: dict[str, Any], store: RunStore) -> CrawlDataset:
    """Rebuild a :class:`CrawlDataset` from its summary; its interactions
    are a view over ``store``'s rows."""
    return CrawlDataset(
        interactions=StoredInteractions(store),
        publishers_visited=data["publishers_visited"],
        publishers_institutional=data["publishers_institutional"],
        publishers_residential=data["publishers_residential"],
        publishers_with_ads=set(data["publishers_with_ads"]),
        landing_click_counts=Counter(data["landing_click_counts"]),
        # Absent in stores written before the cap was reported.
        residential_dropped=data.get("residential_dropped", 0),
        started_at=data["started_at"],
        finished_at=data["finished_at"],
    )


# ------------------------------------------------------------ configuration


def pattern_to_record(pattern: InvariantPattern) -> dict[str, Any]:
    return {
        "network_key": pattern.network_key,
        "network_name": pattern.network_name,
        "token": pattern.token,
    }


def pattern_from_record(data: dict[str, Any]) -> InvariantPattern:
    return InvariantPattern(
        network_key=data["network_key"],
        network_name=data["network_name"],
        token=data["token"],
    )


def world_config_to_meta(config: WorldConfig) -> dict[str, Any]:
    """A :class:`WorldConfig` as a JSON-compatible meta value."""
    return dataclasses.asdict(config)


def world_config_from_meta(data: dict[str, Any]) -> WorldConfig:
    """Inverse of :func:`world_config_to_meta`."""
    fields = {field.name for field in dataclasses.fields(WorldConfig)}
    unknown = set(data) - fields
    if unknown:
        raise StoreError(f"unknown world-config keys in store: {sorted(unknown)}")
    kwargs = dict(data)
    for name in ("networks_per_publisher", "networks_per_campaign"):
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    return WorldConfig(**kwargs)
