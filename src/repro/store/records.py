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
from typing import Any

from repro.attacks.categories import AttackCategory
from repro.core.attribution import AttributionResult
from repro.core.crawler import AdInteraction
from repro.core.discovery import DiscoveredCampaign, DiscoveryResult
from repro.core.farm import CrawlDataset
from repro.core.milking import MilkedDomain, MilkedFile, MilkingReport
from repro.core.seeds import InvariantPattern
from repro.ecosystem.virustotal import VtReport
from repro.ecosystem.world import WorldConfig
from repro.errors import StoreError

# ---------------------------------------------------------- interactions


def hash_to_record(row: int, record: AdInteraction) -> dict[str, Any]:
    """One ``hashes`` stream record: the clustering view of a crawl row."""
    return {
        "row": row,
        "hash": f"{record.screenshot_hash:032x}",
        "e2ld": record.landing_e2ld,
    }


# ------------------------------------------------------------- campaigns


def campaign_to_record(
    campaign: DiscoveredCampaign, rows_of: dict[int, int]
) -> dict[str, Any]:
    """One ``campaigns`` stream record.

    ``rows_of`` maps ``id(interaction) -> interactions-stream row`` so
    members are stored by reference.
    """
    return {
        "cluster_id": campaign.cluster_id,
        "label": campaign.label,
        "category": campaign.category.value if campaign.category else None,
        "pairs": [[f"{value:032x}", e2ld] for value, e2ld in campaign.pairs],
        "interaction_rows": [rows_of[id(record)] for record in campaign.interactions],
    }


def campaign_from_record(
    data: dict[str, Any], interactions: list[AdInteraction]
) -> DiscoveredCampaign:
    """Inverse of :func:`campaign_to_record` given the loaded crawl rows."""
    return DiscoveredCampaign(
        cluster_id=data["cluster_id"],
        pairs=[(int(value, 16), e2ld) for value, e2ld in data["pairs"]],
        interactions=[interactions[row] for row in data["interaction_rows"]],
        label=data["label"],
        category=AttackCategory(data["category"]) if data["category"] else None,
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
    campaign_records: list[dict[str, Any]],
    interactions: list[AdInteraction],
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
        result.campaigns.append(campaign_from_record(record, interactions))
    return result


# ------------------------------------------------------------ attribution


def attribution_to_records(
    attribution: AttributionResult, rows_of: dict[int, int]
) -> list[dict[str, Any]]:
    """``attribution`` stream rows: ``(interaction row, network key|None)``,
    in crawl order."""
    network_of: dict[int, str] = {}
    for key, records in attribution.by_network.items():
        for record in records:
            network_of[id(record)] = key
    rows = [
        {"row": rows_of[id(record)], "network": network_of.get(id(record))}
        for records in attribution.by_network.values()
        for record in records
    ]
    rows.extend(
        {"row": rows_of[id(record)], "network": None}
        for record in attribution.unknown
    )
    rows.sort(key=lambda item: item["row"])
    return rows


def attribution_from_records(
    rows: list[dict[str, Any]], interactions: list[AdInteraction]
) -> AttributionResult:
    """Rebuild an :class:`AttributionResult`; rows replay in crawl order,
    so per-network insertion order matches the original run."""
    result = AttributionResult()
    for item in rows:
        record = interactions[item["row"]]
        key = item["network"]
        if key is None:
            result.unknown.append(record)
        else:
            result.by_network.setdefault(key, []).append(record)
    return result


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
    domain: str,
    residential: bool,
    laptop_index: int,
    clock: float,
    sessions: int,
    interaction_rows: int,
) -> dict[str, Any]:
    """One ``progress`` stream record: a publisher domain finished."""
    return {
        "domain": domain,
        "residential": residential,
        "laptop_index": laptop_index,
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


def crawl_summary_from_meta(
    data: dict[str, Any], interactions: list[AdInteraction]
) -> CrawlDataset:
    """Rebuild a :class:`CrawlDataset` from its summary + the crawl rows."""
    return CrawlDataset(
        interactions=interactions,
        sessions=data["sessions"],
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
