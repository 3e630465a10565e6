"""``repro.feed`` — the versioned threat-intel blocklist feed.

The operational payoff of the paper's milking result (§4.5): milking
enumerates throw-away SE attack domains faster than Google Safe
Browsing lists them, so the natural product is a live blocklist feed.
This package turns the milking stream into one, modeled on the Safe
Browsing Update API shape:

* :mod:`repro.feed.snapshot` — canonical, content-hashed snapshot and
  delta records (the wire format);
* :mod:`repro.feed.publisher` — a milking observer that cuts versioned
  snapshots as domains are discovered;
* :mod:`repro.feed.payloads` — the one answer table: the
  not-modified rule, delta-chain compaction over checkpoint versions and
  the smaller-than-full delta rule, decided once per (client, tip) and
  memoized with its gzip variant; the whole history's tip row is built
  up front;
* :mod:`repro.feed.server` — full/delta/not-modified request handling
  over that table, scoped to a sim time for fleet replays, with
  request stats and telemetry;
* :mod:`repro.feed.fleet` — a seeded, cohort-aggregated client fleet
  (sim-clock driven, scalable to ~10⁶ modeled clients) measuring
  protection lag versus the simulated GSB blacklist;
* :mod:`repro.feed.asyncserve` — the HTTP front-end: precomputed wire
  responses, pipelined keep-alive serving with idle-timeout and
  write-backpressure guards, and ``SO_REUSEPORT`` worker replicas
  proven byte-identical to :meth:`FeedServer.handle
  <repro.feed.server.FeedServer.handle>`.

Determinism contract: snapshots and deltas are byte-identical across
``--workers`` counts, repeat runs, and resume
(``tests/test_feed_determinism.py``).
"""

from repro.feed.asyncserve import AsyncFeedHTTPServer
from repro.feed.fleet import (
    DomainProtection,
    FeedClientFleet,
    FleetConfig,
    FleetReport,
    lag_table,
    percentile,
)
from repro.feed.payloads import CHECKPOINT_INTERVAL, PayloadStore
from repro.feed.publisher import FeedPublisher, network_of_clusters
from repro.feed.server import (
    DELTA,
    FULL,
    NOT_MODIFIED,
    FeedRequest,
    FeedResponse,
    FeedServer,
    ServerStats,
)
from repro.feed.snapshot import (
    FEED_FORMAT,
    FeedDelta,
    FeedEntry,
    FeedSnapshot,
    apply_delta,
    compute_delta,
    state_hash,
)

__all__ = [
    "AsyncFeedHTTPServer",
    "CHECKPOINT_INTERVAL",
    "PayloadStore",
    "DomainProtection",
    "FeedClientFleet",
    "FleetConfig",
    "FleetReport",
    "lag_table",
    "percentile",
    "FeedPublisher",
    "network_of_clusters",
    "DELTA",
    "FULL",
    "NOT_MODIFIED",
    "FeedRequest",
    "FeedResponse",
    "FeedServer",
    "ServerStats",
    "FEED_FORMAT",
    "FeedDelta",
    "FeedEntry",
    "FeedSnapshot",
    "apply_delta",
    "compute_delta",
    "state_hash",
]
