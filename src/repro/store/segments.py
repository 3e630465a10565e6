"""Shard segment files: the worker half of the parallel crawl store.

Each shard worker streams its finished :class:`~repro.core.farm.CrawlBatch`
objects into one append-only JSONL *segment* file, then closes the file
with a single summary record carrying the worker's side-band bookkeeping
(fault stats, ad-network impression counters, fetch count).  The parent
process tails the segments while the workers run and merges the batch
records back into canonical plan order.

Segments are transport, not storage: they live under the run store's
``shards/`` subdirectory (or a temp dir for in-memory stores), are
truncated at worker start, and are deleted once the merge completes.
The canonical streams (``interactions``, ``progress``, …) are written by
the parent only, in plan order, exactly as a sequential run writes them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.crawler import interaction_from_dict, interaction_to_dict
from repro.core.farm import CrawlBatch
from repro.errors import StoreError


def segment_path(directory: str | Path, shard: int, shard_count: int) -> Path:
    """The segment file one shard worker writes."""
    return Path(directory) / f"shard-{shard}-of-{shard_count}.jsonl"


def batch_to_segment_record(batch: CrawlBatch) -> dict[str, Any]:
    """One segment line: a finished crawl batch, interactions inlined."""
    return {
        "kind": "batch",
        "position": batch.position,
        "domain": batch.domain,
        "residential": batch.residential,
        "clock": batch.clock,
        "plan_start": batch.plan_start,
        "interactions": [
            interaction_to_dict(record) for record in batch.interactions
        ],
    }


def batch_from_segment_record(data: dict[str, Any]) -> CrawlBatch:
    """Inverse of :func:`batch_to_segment_record`."""
    return CrawlBatch(
        domain=data["domain"],
        residential=data["residential"],
        interactions=[
            interaction_from_dict(item) for item in data["interactions"]
        ],
        clock=data["clock"],
        position=data["position"],
        plan_start=data.get("plan_start", 0.0),
    )


def summary_to_segment_record(
    shard: int,
    fault_stats: dict[str, Any] | None,
    network_counters: dict[str, dict[str, int]],
    fetch_count: int,
    metrics: dict[str, Any] | None = None,
    materialized: list[str] | None = None,
) -> dict[str, Any]:
    """The segment's closing record: everything that isn't a batch.

    Written last, so its presence doubles as the worker's commit marker —
    a segment without a summary belongs to a worker that died mid-crawl.

    ``materialized`` lists the publisher domains whose pages this worker
    derived; the parent unions the shards' lists into its own
    materialization stats so the ``world.materialized_publishers`` gauge
    stays worker-invariant (pages are built in whichever process crawls
    the domain, but the *set* of built pages is a property of the run).
    """
    return {
        "kind": "summary",
        "shard": shard,
        "fault_stats": fault_stats,
        "networks": network_counters,
        "fetch_count": fetch_count,
        "metrics": metrics,
        "materialized": materialized,
    }


class SegmentReader:
    """Incrementally tails one segment file while its worker appends.

    Only complete (newline-terminated) lines are consumed; a torn tail —
    the worker is mid-write, or died mid-write — is left in the file
    untouched and simply never surfaces as a record.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._offset = 0

    def poll(self) -> list[dict[str, Any]]:
        """All complete records appended since the previous poll."""
        if not self.path.exists():
            return []
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        end = data.rfind(b"\n")
        if end < 0:
            return []
        chunk = data[: end + 1]
        self._offset += len(chunk)
        records: list[dict[str, Any]] = []
        for line_no, line in enumerate(chunk.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise StoreError(
                    f"corrupt shard segment record in {self.path} "
                    f"(chunk line {line_no}): {error}"
                ) from error
        return records
