"""The versioned feed server.

Serves the snapshot history a :class:`~repro.feed.publisher.FeedPublisher`
produced, speaking the snapshot/delta protocol of
:mod:`repro.feed.snapshot`: a fresh client gets the latest **full
snapshot**, a client at a known older version a **delta** (compacted
over checkpoint versions), and a current client **not-modified** — by
version, or by content hash (the conditional-request / ``ETag`` path).
A client whose hash contradicts the latest content at the same version
number is corrupted, not current: it is repaired with a full snapshot.

Every answer comes from the server's
:class:`~repro.feed.payloads.PayloadStore`, which writes that policy
once and memoizes each answer; this class adds history validation,
time scoping (``now=``, the sim-replay path), stats and telemetry.

The server may be driven from several threads at once (the HTTP
front-end's event loop and in-process callers), so :class:`ServerStats`
updates are lock-protected — counters are exact under load, not
approximate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigError, StoreError
from repro.feed.payloads import (
    CHECKPOINT_INTERVAL,
    DELTA,
    FULL,
    NOT_MODIFIED,
    FeedResponse,
    PayloadStore,
)
from repro.feed.snapshot import FeedSnapshot
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

#: The answer before anything is published at a poll's sim instant: the
#: client's empty state is already current.
NOTHING_PUBLISHED = FeedResponse(
    status=NOT_MODIFIED, version=0, content_hash="", payload=b""
)


@dataclass(frozen=True)
class FeedRequest:
    """One client poll.

    ``client_version``/``client_hash`` describe the state the client
    already holds (both ``None`` for a fresh client).  ``client_hash``
    doubles as the conditional-request validator: when it matches the
    latest snapshot's content hash the server answers not-modified.
    """

    client_version: int | None = None
    client_hash: str | None = None


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
    bytes_served: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, status: str, size: int) -> None:
        """Account one answered request (exact under concurrency)."""
        with self._lock:
            self.requests += 1
            self.bytes_served += size
            if status == FULL:
                self.full_responses += 1
            elif status == DELTA:
                self.delta_responses += 1
            elif status == NOT_MODIFIED:
                self.not_modified_responses += 1

    def as_dict(self) -> dict:
        """A consistent snapshot of every counter."""
        with self._lock:
            return {
                "requests": self.requests,
                "full": self.full_responses,
                "delta": self.delta_responses,
                "not_modified": self.not_modified_responses,
                "bytes_served": self.bytes_served,
            }


class FeedServer:
    """Serves full-snapshot and delta-since-version blocklist requests."""

    def __init__(
        self,
        snapshots: Iterable[FeedSnapshot],
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
        self.payloads = PayloadStore(
            self.snapshots, checkpoint_interval=checkpoint_interval
        )
        self.stats = ServerStats()

    @classmethod
    def from_store(
        cls, store, checkpoint_interval: int = CHECKPOINT_INTERVAL
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
            checkpoint_interval=checkpoint_interval,
        )

    # ------------------------------------------------------------- protocol

    @property
    def latest(self) -> FeedSnapshot:
        return self.snapshots[-1]

    def latest_at(self, now: float) -> FeedSnapshot | None:
        """The newest snapshot published at or before sim time ``now``.

        Lets a sim-clock client fleet replay the publication timeline
        against the full history: the server answers each poll as it
        would have at that instant.
        """
        tip = self.payloads.tip_at(now)
        return None if tip is None else self.snapshots[tip]

    def handle(self, request: FeedRequest, now: float | None = None) -> FeedResponse:
        """Answer one poll; see the module docstring for the policy.

        ``now`` scopes the request to the history published by that sim
        time (:meth:`latest_at`); omitted, the whole history is visible.
        """
        store = self.payloads
        tip = store.tip if now is None else store.tip_at(now)
        if tip is None:
            response = NOTHING_PUBLISHED
        else:
            response = store.answer(request.client_version, request.client_hash, tip)
        self.stats.record(response.status, response.size)
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("feed.server.requests")
            telemetry.inc(f"feed.server.{response.status}")
            telemetry.observe("feed.server.response_bytes", response.size)
        return response
