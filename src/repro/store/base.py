"""Persistent run storage: the spine of the streaming pipeline.

A :class:`RunStore` holds one measurement run as *typed, append-only
record streams* keyed by a run id.  Streams are named by the constants
below; every record is a JSON-compatible dict whose schema is defined by
the codecs in :mod:`repro.store.records`.  Run-level scalars (world
config, crawl summary, status) live in the ``meta`` stream as append-only
``{"key", "value"}`` records with last-write-wins semantics, so even
metadata updates never rewrite earlier bytes.

Two backends subclass it: :class:`~repro.store.memory.MemoryStore`
(plain lists, the default for in-process runs) and
:class:`~repro.store.jsonl.JsonlStore` (one ``.jsonl`` file per stream in
a directory, for durable runs that can be resumed or re-analysed
offline).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import StoreError

#: Stream of raw crawl records (one per :class:`AdInteraction`, in crawl
#: order — the total order every downstream stage consumes).
INTERACTIONS = "interactions"
#: Stream of clustering inputs: ``(interaction row, dhash, e2LD)`` for
#: every interaction that reached a third-party landing page.
HASHES = "hashes"
#: Stream of discovered campaigns (kept clusters after the theta_c filter).
CAMPAIGNS = "campaigns"
#: Stream of per-interaction attribution rows (row index -> network key).
ATTRIBUTION = "attribution"
#: Stream of milking samples: kind-tagged domain / file / phone / gateway
#: records plus one summary row.
MILKING = "milking"
#: Stream of crawl progress markers (one per completed publisher domain).
PROGRESS = "progress"
#: Stream of published blocklist-feed snapshots (one record per feed
#: version; schema owned by :mod:`repro.feed.snapshot`).
FEED = "feed"
#: Key/value metadata stream (append-only, last write wins per key).
META = "meta"

#: Every canonical stream, in write order.
STREAMS = (
    INTERACTIONS,
    HASHES,
    CAMPAIGNS,
    ATTRIBUTION,
    MILKING,
    PROGRESS,
    FEED,
    META,
)


def row_past_end(stream: str, row: int, rows: int) -> StoreError:
    """The error for a requested row a stream does not hold."""
    return StoreError(
        f"row {row} is past the end of stream {stream!r} ({rows} rows)"
    )


class RunStore(ABC):
    """Append-only record streams for one measurement run.

    The two backends implement :meth:`append`, :meth:`scan`,
    :meth:`count`, :meth:`streams` and :meth:`truncate`; this base
    supplies :meth:`read`, batching and the meta-stream key/value
    convention on top.
    """

    #: Identifier of the run this store holds.
    run_id: str

    @abstractmethod
    def append(self, stream: str, record: Mapping[str, Any]) -> None:
        """Append one record to ``stream``."""

    def extend(self, stream: str, records: Iterable[Mapping[str, Any]]) -> None:
        """Append many records to ``stream`` in order."""
        for record in records:
            self.append(stream, record)

    @abstractmethod
    def scan(
        self, stream: str, rows: Iterable[int] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Yield records of ``stream`` one at a time.

        Every record in append order when ``rows`` is ``None``; otherwise
        the records at those row numbers, in the order given, decoding
        no other row.  A row past the end raises
        :class:`~repro.errors.StoreError`.
        """

    def read(self, stream: str) -> list[dict[str, Any]]:
        """Every record of ``stream``, in append order."""
        return list(self.scan(stream))

    @abstractmethod
    def count(self, stream: str) -> int:
        """Number of records appended to ``stream`` so far."""

    @abstractmethod
    def streams(self) -> list[str]:
        """Names of the streams that hold at least one record."""

    @abstractmethod
    def truncate(self, stream: str, keep: int) -> None:
        """Drop every record of ``stream`` past the first ``keep``.

        The one sanctioned departure from append-only: crash recovery
        trims unacknowledged records (rows past the last progress marker)
        before continuing a run.
        """

    # -------------------------------------------------------- write barriers

    def begin_intent(self, label: str) -> None:
        """Open a write barrier: the appends until :meth:`commit_intent`
        form one atomic group that a crash-recovery open rolls back as a
        unit.

        A no-op here: an in-process store dies with its process, so there
        is nothing a recovery pass could observe half-written.  Durable
        backends override this (see
        :meth:`repro.store.jsonl.JsonlStore.begin_intent`).
        """

    def commit_intent(self) -> None:
        """Close the open write barrier; the group of writes is final."""

    # ------------------------------------------------------------- metadata

    def put_meta(self, key: str, value: Any) -> None:
        """Set a run-level metadata value (appends to the meta stream)."""
        self.append(META, {"key": key, "value": value})

    def get_meta(self, key: str, default: Any = None) -> Any:
        """Latest metadata value for ``key``, or ``default``."""
        value = default
        for record in self.scan(META):
            if record.get("key") == key:
                value = record.get("value")
        return value
