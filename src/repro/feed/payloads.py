"""Precomputed, immutable feed payloads (the serving hot path).

The reference :class:`~repro.feed.server.FeedServer` decides *what* to
serve; this module makes serving it cheap.  A :class:`PayloadStore` is
built once per snapshot history and is immutable afterwards:

* every snapshot's canonical bytes are rendered exactly once
  (``full_bytes``) — request handling never calls
  ``FeedSnapshot.canonical_bytes()`` again;
* the gzip variant of every hot payload is compressed at publish time
  (``mtime=0`` so the gzip bytes are as deterministic as the JSON they
  wrap);
* the **delta chain is compacted**: a client more than
  ``checkpoint_interval`` versions behind is served the delta to the
  next *checkpoint* version instead of a near-full-size delta straight
  to the tip.  Catch-up becomes a short chain of small deltas — each
  response spans at most ``checkpoint_interval`` versions of churn, so
  ``since=v1`` no longer degrades to a payload the size of the full
  snapshot — and any client converges in at most
  ``ceil(versions / checkpoint_interval) + 1`` polls;
* the decision table for the *tip* (the only state a production server
  ever serves) is precomputed per known client version, so the hot path
  is a dictionary lookup returning frozen bytes.

Because every byte here is a pure function of the snapshot records,
independently constructed stores — the in-process ``FeedServer``, the
asyncio front-end, every ``SO_REUSEPORT`` worker replica — are
byte-identical by construction;
``tests/test_feed_serving.py`` proves it case by case.
"""

from __future__ import annotations

import bisect
import gzip
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.feed.snapshot import FeedSnapshot, compute_delta

#: Response status tags (the protocol's three verbs; re-exported by
#: :mod:`repro.feed.server`, the historical home).
FULL = "full"
DELTA = "delta"
NOT_MODIFIED = "not_modified"

#: Default checkpoint spacing for delta-chain compaction, in versions.
#: Small enough that a checkpoint-spanning delta stays far below the
#: full payload (the CI bar is 10%), large enough that clients polling
#: at a sane cadence always fall inside the direct-to-tip window.
CHECKPOINT_INTERVAL = 8

#: gzip level for publish-time compression.  Payloads are compressed
#: once and served millions of times, so spend the CPU up front.
GZIP_LEVEL = 9


def gzip_bytes(payload: bytes) -> bytes:
    """Deterministic gzip: fixed level, zeroed mtime, no filename."""
    return gzip.compress(payload, compresslevel=GZIP_LEVEL, mtime=0)


@dataclass(frozen=True)
class Payload:
    """One precomputed response body: identity and gzip variants.

    ``gz`` is ``None`` when compression would not shrink the payload
    (never the case for real JSON bodies, but the contract is explicit:
    a ``None`` means "serve identity even to gzip-accepting clients").
    """

    status: str
    version: int
    content_hash: str
    body: bytes
    gz: bytes | None

    @classmethod
    def build(cls, status: str, version: int, content_hash: str, body: bytes) -> "Payload":
        compressed = gzip_bytes(body)
        return cls(
            status=status,
            version=version,
            content_hash=content_hash,
            body=body,
            gz=compressed if len(compressed) < len(body) else None,
        )


class PayloadStore:
    """Immutable render-once payloads for one snapshot history."""

    def __init__(
        self,
        snapshots: Sequence[FeedSnapshot],
        checkpoint_interval: int = CHECKPOINT_INTERVAL,
    ) -> None:
        if not snapshots:
            raise ConfigError("payload store needs at least one snapshot")
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        self.snapshots = tuple(snapshots)
        self.checkpoint_interval = checkpoint_interval
        self._index_of = {
            snapshot.version: index for index, snapshot in enumerate(self.snapshots)
        }
        #: Publication times, for bisect-based time scoping (latest_at).
        self._published = [snapshot.published_at for snapshot in self.snapshots]
        #: Canonical bytes per version — rendered exactly once, ever.
        self._full = {
            snapshot.version: snapshot.canonical_bytes()
            for snapshot in self.snapshots
        }
        latest = self.snapshots[-1]
        self._full_payload = Payload.build(
            FULL, latest.version, latest.content_hash, self._full[latest.version]
        )
        #: Tip decision table: known stale version -> precomputed payload.
        self._tip: dict[int, Payload] = {}
        for index, snapshot in enumerate(self.snapshots[:-1]):
            self._tip[snapshot.version] = self._build_tip_payload(index)

    # ------------------------------------------------------------- geometry

    @property
    def latest(self) -> FeedSnapshot:
        return self.snapshots[-1]

    def index_of(self, version: int) -> int | None:
        return self._index_of.get(version)

    def full_bytes(self, version: int) -> bytes:
        """The snapshot's canonical bytes (rendered at construction)."""
        return self._full[version]

    def full_payload(self) -> Payload:
        """The latest full snapshot, as a precomputed payload."""
        return self._full_payload

    def latest_at(self, now: float) -> FeedSnapshot | None:
        """Newest snapshot published at or before ``now`` (bisect, O(log n))."""
        index = bisect.bisect_right(self._published, now)
        return self.snapshots[index - 1] if index else None

    # ----------------------------------------------------------- compaction

    def delta_target_index(self, from_index: int, latest_index: int) -> int:
        """Where the delta from ``from_index`` should land.

        Within ``checkpoint_interval`` versions of the (possibly
        time-scoped) latest, go straight to it; further back, go to the
        next checkpoint boundary — an index that is a multiple of the
        interval — keeping every served delta's span bounded.
        """
        if from_index >= latest_index:
            raise ValueError("delta target requires from_index < latest_index")
        if latest_index - from_index <= self.checkpoint_interval:
            return latest_index
        interval = self.checkpoint_interval
        next_checkpoint = ((from_index // interval) + 1) * interval
        return min(next_checkpoint, latest_index)

    def _build_tip_payload(self, from_index: int) -> Payload:
        """The precomputed answer for a client at ``snapshots[from_index]``."""
        latest_index = len(self.snapshots) - 1
        target_index = self.delta_target_index(from_index, latest_index)
        base = self.snapshots[from_index]
        target = self.snapshots[target_index]
        delta_body = compute_delta(base, target).canonical_bytes()
        if len(delta_body) >= len(self._full[self.latest.version]):
            # The delta buys nothing over the full snapshot; serve full.
            return self._full_payload
        return Payload.build(DELTA, target.version, target.content_hash, delta_body)

    # -------------------------------------------------------------- serving

    def tip_payload(self, client_version: int | None) -> Payload:
        """The precomputed payload response for an un-scoped request.

        Unknown or absent client versions get the full snapshot; known
        stale versions get their compacted delta (or the full snapshot
        where the delta would not be smaller).
        """
        if client_version is None:
            return self._full_payload
        return self._tip.get(client_version, self._full_payload)


def build_payload_store(
    snapshots: Iterable[FeedSnapshot],
    checkpoint_interval: int = CHECKPOINT_INTERVAL,
) -> PayloadStore:
    """Construct a :class:`PayloadStore` (convenience for callers holding
    an iterable)."""
    return PayloadStore(list(snapshots), checkpoint_interval=checkpoint_interval)
