"""The versioned feed server.

Serves the snapshot history a :class:`~repro.feed.publisher.FeedPublisher`
produced, speaking the snapshot/delta protocol of
:mod:`repro.feed.snapshot`:

* a client with no state gets the latest **full snapshot**;
* a client at a known older version gets a **delta** — to the latest
  version when it is close, or to the next *checkpoint* version when it
  is far behind (delta-chain compaction, see
  :mod:`repro.feed.payloads`), and never a delta that would be no
  smaller than the full payload;
* a client already at the latest version (by version number, or by
  content hash — the conditional-request / ``ETag`` path) is
  short-circuited with **not-modified** before any payload is built.
  A client whose *hash* contradicts the latest content at the same
  version number is corrupted, not current: it is repaired with a full
  snapshot.

All payloads for the un-scoped hot path (what a production front-end
serves) come precomputed from an immutable
:class:`~repro.feed.payloads.PayloadStore` built at construction —
request handling is dictionary lookups, no serialization.  Time-scoped
requests (``now=``, the sim-replay path) additionally memoize deltas in
a bounded LRU cache keyed by ``(from, to)``.

The server may be driven from several threads at once (the HTTP
front-end's event loop and in-process callers), so :class:`ServerStats`
updates are lock-protected — counters are exact under load, not
approximate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigError, StoreError
from repro.feed.payloads import (
    CHECKPOINT_INTERVAL,
    DELTA,
    FULL,
    NOT_MODIFIED,
    Payload,
    PayloadStore,
)
from repro.feed.snapshot import FeedSnapshot, compute_delta
from repro.telemetry import current as current_telemetry

__all__ = [
    "FULL",
    "DELTA",
    "NOT_MODIFIED",
    "FeedRequest",
    "FeedResponse",
    "ServerStats",
    "FeedServer",
]


@dataclass(frozen=True)
class FeedRequest:
    """One client poll.

    ``client_version``/``client_hash`` describe the state the client
    already holds (both ``None`` for a fresh client).  ``client_hash``
    doubles as the conditional-request validator: when it matches the
    latest snapshot's content hash the server answers not-modified
    without touching the payload path.
    """

    client_version: int | None = None
    client_hash: str | None = None


@dataclass(frozen=True)
class FeedResponse:
    """The server's answer: status, target version, and the payload.

    ``gzip_payload`` is the publish-time-compressed variant when one was
    precomputed (HTTP front-ends serve it to ``Accept-Encoding: gzip``
    clients); it is ``None`` on the time-scoped sim path and never part
    of equality — the identity ``payload`` is the canonical content.
    """

    status: str
    version: int
    content_hash: str
    payload: bytes
    gzip_payload: bytes | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.payload)


@dataclass
class ServerStats:
    """Request accounting (also mirrored into telemetry counters).

    Mutated from many threads at once (the HTTP front-end's event loop
    and in-process callers), so every update happens under one lock; reads of individual fields
    are torn-free (plain ints) and :meth:`as_dict` takes the lock for a
    consistent cross-field snapshot.
    """

    requests: int = 0
    full_responses: int = 0
    delta_responses: int = 0
    not_modified_responses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_served: int = 0
    by_status: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, status: str, size: int) -> None:
        """Account one answered request (exact under concurrency)."""
        with self._lock:
            self.requests += 1
            self.bytes_served += size
            self.by_status[status] = self.by_status.get(status, 0) + 1
            if status == FULL:
                self.full_responses += 1
            elif status == DELTA:
                self.delta_responses += 1
            elif status == NOT_MODIFIED:
                self.not_modified_responses += 1

    def record_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def as_dict(self) -> dict:
        """A consistent snapshot of every counter."""
        with self._lock:
            return {
                "requests": self.requests,
                "full": self.full_responses,
                "delta": self.delta_responses,
                "not_modified": self.not_modified_responses,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "bytes_served": self.bytes_served,
            }


class FeedServer:
    """Serves full-snapshot and delta-since-version blocklist requests."""

    def __init__(
        self,
        snapshots: Iterable[FeedSnapshot],
        delta_cache_size: int = 128,
        checkpoint_interval: int = CHECKPOINT_INTERVAL,
    ) -> None:
        self.snapshots = list(snapshots)
        if not self.snapshots:
            raise ConfigError(
                "feed server needs at least one published snapshot; run the "
                "pipeline with milking enabled to produce a feed"
            )
        versions = [snapshot.version for snapshot in self.snapshots]
        if versions != sorted(set(versions)):
            raise ConfigError(
                "feed snapshot history is not strictly version-ordered: "
                f"{versions}"
            )
        if delta_cache_size < 1:
            raise ValueError("delta_cache_size must be at least 1")
        self._by_version = {snapshot.version: snapshot for snapshot in self.snapshots}
        self.payloads = PayloadStore(
            self.snapshots, checkpoint_interval=checkpoint_interval
        )
        #: LRU of time-scoped delta payload bytes keyed by (from, to);
        #: the un-scoped hot path never touches it (fully precomputed).
        self._delta_cache: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        self._delta_cache_size = delta_cache_size
        self._cache_lock = threading.Lock()
        self.stats = ServerStats()

    @classmethod
    def from_store(
        cls,
        store,
        delta_cache_size: int = 128,
        checkpoint_interval: int = CHECKPOINT_INTERVAL,
    ) -> "FeedServer":
        """Open the feed a streamed run persisted into its store."""
        # Imported here: the store package must not depend on repro.feed.
        from repro.store.base import FEED

        records = store.read(FEED)
        if not records:
            raise StoreError(
                f"store {store.run_id!r} holds no feed snapshots; run "
                "`seacma run --store-dir DIR` (with milking "
                "enabled) to publish a feed"
            )
        return cls(
            (FeedSnapshot.from_record(record) for record in records),
            delta_cache_size=delta_cache_size,
            checkpoint_interval=checkpoint_interval,
        )

    # ------------------------------------------------------------- protocol

    @property
    def latest(self) -> FeedSnapshot:
        return self.snapshots[-1]

    def snapshot(self, version: int) -> FeedSnapshot:
        """The snapshot at ``version`` (raises on unknown versions)."""
        snapshot = self._by_version.get(version)
        if snapshot is None:
            raise ConfigError(f"unknown feed version: {version}")
        return snapshot

    def latest_at(self, now: float) -> FeedSnapshot | None:
        """The newest snapshot published at or before sim time ``now``.

        Lets a sim-clock client fleet replay the publication timeline
        against the full history: the server answers each poll as it
        would have at that instant.  Bisect over the publication times —
        O(log n), not a per-request linear scan.
        """
        return self.payloads.latest_at(now)

    def handle(self, request: FeedRequest, now: float | None = None) -> FeedResponse:
        """Answer one poll; see the module docstring for the policy.

        ``now`` scopes the request to the history published by that sim
        time (:meth:`latest_at`); omitted, the whole history is visible.
        """
        telemetry = current_telemetry()
        latest = self.latest if now is None else self.latest_at(now)
        if latest is None:
            # Nothing published yet at this sim instant: the client's
            # empty state is already current.
            response = FeedResponse(
                status=NOT_MODIFIED, version=0, content_hash="", payload=b""
            )
        elif request.client_hash == latest.content_hash or (
            request.client_version == latest.version and request.client_hash is None
        ):
            # Current by content hash, or by version with no hash to
            # contradict it.  A matching version with a *mismatched*
            # hash is a corrupted client and falls through to be
            # repaired with a full snapshot.
            response = FeedResponse(
                status=NOT_MODIFIED,
                version=latest.version,
                content_hash=latest.content_hash,
                payload=b"",
            )
        elif now is None:
            # The un-scoped hot path: precomputed payload lookup.
            payload = self.payloads.tip_payload(request.client_version)
            self.stats.record_cache(hit=True)
            response = FeedResponse(
                status=payload.status,
                version=payload.version,
                content_hash=payload.content_hash,
                payload=payload.body,
                gzip_payload=payload.gz,
            )
        else:
            response = self._scoped_payload_response(request, latest)
        self.stats.record(response.status, response.size)
        if telemetry.enabled:
            telemetry.inc("feed.server.requests")
            telemetry.inc(f"feed.server.{response.status}")
            telemetry.observe("feed.server.response_bytes", response.size)
        return response

    # ----------------------------------------------------------- internals

    def _scoped_payload_response(
        self, request: FeedRequest, latest: FeedSnapshot
    ) -> FeedResponse:
        """The payload path for time-scoped (sim replay) requests.

        Applies the same compaction policy as the precomputed tip table,
        relative to the *scoped* latest version, memoizing delta bytes
        in the LRU.  Full-snapshot bytes come from the render-once
        payload store — nothing is serialized per request.
        """
        store = self.payloads
        latest_index = store.index_of(latest.version)
        base_index = (
            store.index_of(request.client_version)
            if request.client_version is not None
            else None
        )
        full_bytes = store.full_bytes(latest.version)
        if base_index is not None and base_index < latest_index:
            target = store.snapshots[
                store.delta_target_index(base_index, latest_index)
            ]
            payload = self._scoped_delta_bytes(store.snapshots[base_index], target)
            if len(payload) < len(full_bytes):
                return FeedResponse(
                    status=DELTA,
                    version=target.version,
                    content_hash=target.content_hash,
                    payload=payload,
                )
        return FeedResponse(
            status=FULL,
            version=latest.version,
            content_hash=latest.content_hash,
            payload=full_bytes,
        )

    def _scoped_delta_bytes(self, base: FeedSnapshot, target: FeedSnapshot) -> bytes:
        key = (base.version, target.version)
        with self._cache_lock:
            cached = self._delta_cache.get(key)
            if cached is not None:
                self._delta_cache.move_to_end(key)
        if cached is not None:
            self.stats.record_cache(hit=True)
            return cached
        self.stats.record_cache(hit=False)
        payload = compute_delta(base, target).canonical_bytes()
        with self._cache_lock:
            self._delta_cache[key] = payload
            while len(self._delta_cache) > self._delta_cache_size:
                self._delta_cache.popitem(last=False)
        return payload
