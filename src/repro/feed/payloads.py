"""The feed's one answer table: every poll is decided here.

A :class:`PayloadStore` holds one snapshot history and answers a poll —
the client's version, its content hash, and the tip of the history the
poll can see — with a stored :class:`FeedResponse`.  The in-process
:class:`~repro.feed.server.FeedServer` (and through it the sim-clock
client fleet) and the asyncio front-end all ask :meth:`PayloadStore.answer`,
so the serving policy is written once:

* a client whose hash matches the tip, or whose version matches it with
  no hash to contradict, is **not modified**; a matching version with a
  *mismatched* hash is corrupted, not current, and is repaired with the
  full snapshot;
* a client at a known older version gets a **delta**, unless it would be
  no smaller than the full snapshot.  The delta chain is **compacted**:
  within ``checkpoint_interval`` versions of the tip the delta goes
  straight to it, further back it goes to the next *checkpoint* version
  (an index that is a multiple of the interval).  Every served delta
  spans at most ``checkpoint_interval`` versions of churn, so a deep
  catch-up is a short chain of small deltas, and any client converges in
  at most ``ceil(versions / checkpoint_interval) + 1`` polls;
* everyone else — fresh, at an unknown version, or ahead of the visible
  tip — gets the tip's **full** snapshot.

Answers are memoized in a plain dict keyed by (client index, tip index).
Every snapshot's canonical bytes are rendered at construction, and
so is the row of the whole history's tip, so a request that is not
scoped to an earlier sim time computes nothing.  Each answer carries its
gzip variant (``mtime=0``, as deterministic as the JSON it wraps).

Because every byte here is a pure function of the snapshot records,
independently constructed stores — the in-process ``FeedServer``, the
asyncio front-end, every ``SO_REUSEPORT`` worker replica — are
byte-identical by construction; ``tests/test_feed_serving.py`` proves it
case by case.
"""

from __future__ import annotations

import bisect
import gzip
from dataclasses import dataclass, field
from typing import Sequence

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

#: gzip level for answer compression.  Answers are compressed once and
#: served millions of times, so spend the CPU up front.
GZIP_LEVEL = 9


@dataclass(frozen=True)
class FeedResponse:
    """One answer: status, target version and hash, and the payload.

    ``gzip_payload`` is the compressed payload (HTTP front-ends serve it
    to ``Accept-Encoding: gzip`` clients), ``None`` when compression
    would not shrink it.  It is never part of equality — the identity
    ``payload`` is the canonical content.
    """

    status: str
    version: int
    content_hash: str
    payload: bytes
    gzip_payload: bytes | None = field(default=None, compare=False, repr=False)

    @classmethod
    def build(cls, status: str, snapshot: FeedSnapshot, payload: bytes) -> "FeedResponse":
        """The answer ``status`` carrying ``payload``, naming ``snapshot``."""
        compressed = gzip.compress(payload, compresslevel=GZIP_LEVEL, mtime=0)
        return cls(
            status=status,
            version=snapshot.version,
            content_hash=snapshot.content_hash,
            payload=payload,
            gzip_payload=compressed if len(compressed) < len(payload) else None,
        )

    @property
    def size(self) -> int:
        return len(self.payload)


class PayloadStore:
    """The memoized answers of one snapshot history."""

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
        #: Index of the whole history's tip.
        self.tip = len(self.snapshots) - 1
        self._index_of = {
            snapshot.version: index for index, snapshot in enumerate(self.snapshots)
        }
        #: Publication times, for bisect-based time scoping (tip_at).
        self._published = [snapshot.published_at for snapshot in self.snapshots]
        #: Canonical bytes per index — rendered exactly once, ever.
        self._full = [snapshot.canonical_bytes() for snapshot in self.snapshots]
        #: Answers by (client index, tip index).  The client index is
        #: None for a full answer and the tip index for not-modified.
        self._answers: dict[tuple[int | None, int], FeedResponse] = {}
        self.answer_row(self.tip)

    def tip_at(self, now: float) -> int | None:
        """Index of the newest snapshot published at or before ``now``
        (bisect, O(log n)); None before the first publication."""
        index = bisect.bisect_right(self._published, now)
        return index - 1 if index else None

    def delta_target_index(self, from_index: int, tip: int) -> int:
        """Where the delta from ``from_index`` lands for a poll of ``tip``:
        the tip when within ``checkpoint_interval`` versions of it, the
        next checkpoint index otherwise."""
        if from_index >= tip:
            raise ValueError("delta target requires from_index < tip")
        if tip - from_index <= self.checkpoint_interval:
            return tip
        interval = self.checkpoint_interval
        return min(((from_index // interval) + 1) * interval, tip)

    # -------------------------------------------------------------- serving

    def answer(
        self, client_version: int | None, client_hash: str | None, tip: int
    ) -> FeedResponse:
        """The answer to a client at ``client_version``/``client_hash``
        polling a history whose newest visible snapshot is ``tip``."""
        return self._answer(self.client_index(client_version, client_hash, tip), tip)

    def client_index(
        self, client_version: int | None, client_hash: str | None, tip: int
    ) -> int | None:
        """The key of the client's answer in :meth:`answer_row` of ``tip``:
        ``tip`` itself when the client is current, the index of the older
        version it holds, or None when only the full snapshot fits."""
        latest = self.snapshots[tip]
        if client_hash == latest.content_hash or (
            client_version == latest.version and client_hash is None
        ):
            return tip
        client = self._index_of.get(client_version)
        return None if client is None or client >= tip else client

    def answer_row(self, tip: int) -> dict[int | None, FeedResponse]:
        """Every answer a poll of ``tip`` can get, by :meth:`client_index`."""
        return {client: self._answer(client, tip) for client in (None, *range(tip + 1))}

    def _answer(self, client: int | None, tip: int) -> FeedResponse:
        # No lock: the tip row is built before any thread can poll, and
        # two threads missing the same scoped key build equal answers
        # (each dict get and set is atomic), so a race costs only time.
        key = (client, tip)
        response = self._answers.get(key)
        if response is None:
            response = self._answers[key] = self._decide(client, tip)
        return response

    def _decide(self, client: int | None, tip: int) -> FeedResponse:
        latest = self.snapshots[tip]
        if client == tip:
            return FeedResponse(NOT_MODIFIED, latest.version, latest.content_hash, b"")
        if client is None:
            return FeedResponse.build(FULL, latest, self._full[tip])
        target = self.snapshots[self.delta_target_index(client, tip)]
        body = compute_delta(self.snapshots[client], target).canonical_bytes()
        if len(body) < len(self._full[tip]):
            return FeedResponse.build(DELTA, target, body)
        # The delta buys nothing over the full snapshot; serve full.
        return self._answer(None, tip)
