"""Dataset export/import.

§4: "we are releasing all browser logs and screenshots related to the SE
attacks that we collected."  These helpers serialize crawl datasets and
milking reports to JSON — and the campaign screenshot gallery to PNG
files — so a run's artifacts can be published, diffed, or re-analysed
without re-running the simulation.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Iterable, TextIO

from repro.core.crawler import (
    AdInteraction,
    interaction_from_dict,
    interaction_to_dict,
)
from repro.core.discovery import DiscoveryResult
from repro.core.milking import MilkedDomain, MilkedFile, MilkingReport
from repro.imaging.png import write_png


# ------------------------------------------------------------- crawl data


def export_crawl_dataset(interactions: Iterable[AdInteraction]) -> str:
    """Serialize ad interactions to a JSON document."""
    out = io.StringIO()
    write_crawl_dataset(interactions, out)
    return out.getvalue()


def write_crawl_dataset(interactions: Iterable[AdInteraction], out: TextIO) -> None:
    """Write :func:`export_crawl_dataset`'s document to ``out``, one
    interaction at a time (a run store's view is never held whole).

    The bytes equal ``json.dumps({"format": ..., "interactions": [...]},
    indent=1)``: each record is dumped on its own and indented to its
    depth — JSON strings escape newlines, so re-indenting is exact.
    """
    out.write('{\n "format": "seacma-crawl/1",\n "interactions": [')
    first = True
    for record in interactions:
        out.write("\n  " if first else ",\n  ")
        text = json.dumps(interaction_to_dict(record), indent=1)
        out.write(text.replace("\n", "\n  "))
        first = False
    out.write("]\n}" if first else "\n ]\n}")


def import_crawl_dataset(document: str) -> list[AdInteraction]:
    """Parse a document produced by :func:`export_crawl_dataset`."""
    data = json.loads(document)
    if data.get("format") != "seacma-crawl/1":
        raise ValueError(f"unknown dataset format: {data.get('format')!r}")
    return [interaction_from_dict(item) for item in data["interactions"]]


# ---------------------------------------------------------- milking data


def _domain_to_dict(record: MilkedDomain) -> dict[str, Any]:
    return {
        "domain": record.domain,
        "cluster_id": record.cluster_id,
        "category": record.category.value if record.category else None,
        "discovered_at": record.discovered_at,
        "listed_at_discovery": record.listed_at_discovery,
        "observed_listed_at": record.observed_listed_at,
        "listed_at_final": record.listed_at_final,
    }


def _file_to_dict(record: MilkedFile) -> dict[str, Any]:
    rescan = record.rescan_report
    return {
        "sha256": record.sha256,
        "filename": record.filename,
        "cluster_id": record.cluster_id,
        "category": record.category.value if record.category else None,
        "downloaded_at": record.downloaded_at,
        "known_to_vt": record.known_to_vt,
        "final_detections": rescan.detections if rescan else None,
        "labels": list(rescan.labels) if rescan else [],
    }


def export_milking_report(report: MilkingReport) -> str:
    """Serialize a milking report (domains, files, feeds) to JSON."""
    return json.dumps(
        {
            "format": "seacma-milking/1",
            "started_at": report.started_at,
            "finished_at": report.finished_at,
            "sessions": report.sessions,
            "sources": report.sources,
            "domains": [_domain_to_dict(record) for record in report.domains],
            "files": [_file_to_dict(record) for record in report.files],
            "phones": sorted(report.phones),
            "gateways": sorted(report.gateways),
        },
        indent=1,
    )


def export_screenshot_gallery(
    internet,
    vantage,
    discovery: DiscoveryResult,
    out_dir: str | Path,
    ua_name: str = "chrome66-macos",
) -> list[Path]:
    """Write one representative PNG screenshot per kept cluster.

    For each cluster the exporter re-visits a member landing URL (or,
    for SE campaigns whose throwaway domains have died, the upstream
    milkable URL) and renders the live page — the same acquisition path
    the measurement system used, so nothing is drawn from ground truth.
    """
    from repro.browser.devtools import DevToolsClient
    from repro.browser.useragent import profile_by_name
    from repro.core.backtrack import milkable_candidates

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    profile = profile_by_name(ua_name)
    for cluster in discovery.campaigns:
        client = DevToolsClient(internet, profile, vantage, stealth=True)
        tab = None
        # One store read per cluster: a slice of stored interactions
        # decodes its rows afresh each time it is taken.
        members = cluster.interactions[:3]
        candidates = [record.landing_url for record in members]
        for record in members:
            candidates.extend(milkable_candidates(record))
        for url in candidates:
            tab = client.navigate(url)
            if tab.loaded:
                break
        if tab is None or not tab.loaded:
            continue
        shot = client.screenshot(tab)
        label = cluster.label.replace("/", "-")
        path = out_dir / f"cluster{cluster.cluster_id:03d}_{label}.png"
        write_png(shot.image, path)
        written.append(path)
    return written
