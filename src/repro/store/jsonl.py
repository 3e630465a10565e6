"""Durable run store: one append-only JSONL file per stream.

Layout of a store directory::

    <dir>/meta.jsonl            # key/value metadata records
    <dir>/interactions.jsonl    # one record per crawled ad interaction
    <dir>/hashes.jsonl          # clustering inputs
    <dir>/campaigns.jsonl       # discovered campaigns
    <dir>/attribution.jsonl     # per-interaction attribution rows
    <dir>/milking.jsonl         # milking samples + summary
    <dir>/progress.jsonl        # per-domain crawl progress markers
    <dir>/intent.log            # write-barrier journal, while open

Every write is a single JSON line.  Outside an intent it is flushed to
disk as it is written, so a run killed mid-crawl loses at most the
record being written; inside an intent (below) the group is flushed
once, at commit.  ``repro resume`` reloads the directory and continues
from the last progress marker.

Durability model (see DESIGN.md, "Chaos & durability"):

* *torn tails* — a partial trailing line from a killed append — are
  expected damage: skipped on read, cut off before the next append;
* *one cut primitive*: a stream only ever shrinks by a single
  ``ftruncate`` to a byte offset on a line boundary
  (:meth:`JsonlStore._cut`).  The kept prefix is never rewritten, so a
  crash leaves a stream either uncut or cut;
* *multi-stream updates* (a crawl batch's rows + its progress marker,
  the finalize block) are bracketed by an **intent**:
  :meth:`begin_intent` writes one record holding every stream's byte
  size to ``intent.log`` before the first write, and
  :meth:`commit_intent` flushes every stream the intent wrote, then
  empties the journal — emptying it is the commit point.  Opening a
  store whose journal still holds a begin record cuts every stream back
  to its journaled size and removes the streams born inside the intent,
  so the group takes effect all-or-nothing.  That is also why appends
  inside an intent skip the per-record flush: until the commit, a crash
  discards the group whatever part of it reached the disk.  Reads of a
  stream flush its pending writes first;
* ``fsync=True`` additionally fsyncs every flushed append (at commit,
  for an intent's), cut and journal write — the paranoid mode for real
  deployments; off by default because the simulation's crash model
  (process death, not power loss) only needs the OS-level write
  ordering.

The named ``store.append.*`` / ``store.truncate.*`` call sites are
:mod:`repro.chaos` crash points; they cost one global check when no
crash plan is armed.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, Iterable, Iterator, Mapping

from repro.chaos.points import crash_point
from repro.errors import StoreError
from repro.store.base import META, RunStore, row_past_end
from repro.telemetry import current as current_telemetry

#: One reusable encoder for every store and shard-segment line.
#: ``json.dumps`` with non-default keyword arguments constructs a fresh
#: ``JSONEncoder`` per call; at ~170k appends per mid-sized run that
#: construction is pure overhead.  The output bytes are identical to
#: ``json.dumps(obj, separators=(",", ":"), sort_keys=True)``.
encode_record = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

_STREAM_NAME = re.compile(r"^[a-z][a-z0-9_-]*$")

#: Name of the write-barrier journal.  Outside the ``*.jsonl`` stream
#: namespace on purpose: :meth:`JsonlStore.streams` and byte-identity
#: comparisons over ``*.jsonl`` never see it.
INTENT_LOG = "intent.log"

logger = logging.getLogger(__name__)


def _parses(raw: bytes) -> bool:
    try:
        json.loads(raw)
    except json.JSONDecodeError:
        return False
    return True


@dataclass
class RecoveryReport:
    """What opening (or checking) a store had to repair."""

    #: Torn trailing bytes trimmed, per stream.
    torn_tails: dict[str, int] = field(default_factory=dict)
    #: Label of the uncommitted intent that was rolled back, if any.
    intent_rolled_back: str | None = None
    #: Records dropped per stream by the intent rollback.
    records_rolled_back: dict[str, int] = field(default_factory=dict)
    #: Streams deleted outright (created after the intent began).
    streams_removed: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.torn_tails and self.intent_rolled_back is None


class JsonlStore(RunStore):
    """Append-only JSONL streams in a directory (one run per directory)."""

    def __init__(
        self,
        directory: str | Path,
        run_id: str | None = None,
        fsync: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._handles: dict[str, IO[str]] = {}
        self._counts: dict[str, int] = {}
        self._intent_active = False
        #: Streams written inside the open intent, not yet flushed by it.
        self._pending: set[str] = set()
        self._journal: IO[bytes] | None = None
        self.last_recovery = RecoveryReport()
        self._recover()
        #: Streams on disk: one glob here, then every stream
        #: :meth:`_handle` creates — :meth:`begin_intent` journals these
        #: without listing the directory again.
        self._known: set[str] = {
            path.stem for path in self.directory.glob("*.jsonl")
        }
        existing = self._stream_path(META).exists()
        stored_id = self.get_meta("run_id") if existing else None
        if stored_id is None:
            self.run_id = run_id if run_id is not None else "run"
            self.put_meta("run_id", self.run_id)
        elif run_id is not None and run_id != stored_id:
            raise StoreError(
                f"store {self.directory} already holds run {stored_id!r}, "
                f"not {run_id!r}; point --store-dir at an empty directory "
                "to start a new run"
            )
        else:
            self.run_id = stored_id

    @classmethod
    def open(cls, directory: str | Path, fsync: bool = False) -> "JsonlStore":
        """Open an existing store, refusing to create one implicitly.

        A directory whose ``meta.jsonl`` holds no complete ``run_id``
        record is not a run store — it is the debris of a run that died
        before its first write committed — so it is refused rather than
        silently adopted under a default run id.
        """
        directory = Path(directory)
        if cls._peek_run_id(directory) is None:
            raise StoreError(
                f"no run store at {directory} (missing or incomplete "
                f"{META}.jsonl); create one with "
                "`repro run --store-dir DIR`"
            )
        return cls(directory, fsync=fsync)

    @staticmethod
    def _peek_run_id(directory: Path) -> str | None:
        """The stored run id, read without constructing (or repairing)."""
        path = directory / f"{META}.jsonl"
        if not path.exists():
            return None
        run_id = None
        for line in path.read_bytes().split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn or damaged line; keep scanning
            if isinstance(record, dict) and record.get("key") == "run_id":
                run_id = record.get("value")
        return run_id

    # ------------------------------------------------------------ plumbing

    def _stream_path(self, stream: str) -> Path:
        if not _STREAM_NAME.match(stream):
            raise StoreError(f"invalid stream name: {stream!r}")
        return self.directory / f"{stream}.jsonl"

    def segment_dir(self) -> Path:
        """Scratch directory for parallel-crawl shard segments.

        Lives beside the streams but outside their ``*.jsonl`` namespace,
        so :meth:`streams` and the canonical store contents are unchanged
        whether or not a run was sharded.
        """
        return self.directory / "shards"

    def _handle(self, stream: str) -> IO[str]:
        handle = self._handles.get(stream)
        if handle is None:
            path = self._stream_path(stream)
            self._repair_tail(path)
            handle = path.open("a", encoding="utf-8")
            self._handles[stream] = handle
            self._known.add(stream)
        return handle

    def _repair_tail(self, path: Path) -> None:
        """Truncate a torn trailing record before appending after it.

        A process killed mid-``write`` leaves a partial final line;
        appending behind it would corrupt the *next* record too, so the
        tail is cut back to the last complete record first.
        """
        if not path.exists():
            return
        size = path.stat().st_size
        # Read back from the end only as far as the last newline.
        chunk = 4096
        with path.open("rb") as handle:
            while True:
                start = max(0, size - chunk)
                handle.seek(start)
                data = handle.read(size - start)
                end = data.rfind(b"\n")
                if end >= 0 or start == 0:
                    break
                chunk *= 2
        keep = start + end + 1
        tail = data[end + 1 :]
        if not tail.strip():
            return
        if _parses(tail):
            # A strict prefix of a serialized JSON object never parses,
            # so a parseable tail is a complete record that only lost its
            # terminator — the same line :meth:`read` already returns as
            # a record.  Truncating it here would drop a record reads
            # have acknowledged; complete it instead.
            logger.warning(
                "completing unterminated trailing record in %s", path
            )
            with path.open("ab") as handle:
                handle.write(b"\n")
            return
        logger.warning(
            "truncating torn trailing record (%d bytes) in %s before append",
            len(tail),
            path,
        )
        self._cut(path, keep)
        self.last_recovery.torn_tails[path.stem] = (
            self.last_recovery.torn_tails.get(path.stem, 0) + len(tail)
        )

    def _sync(self, handle: IO) -> None:
        if self.fsync:
            os.fsync(handle.fileno())

    # ------------------------------------------------------------- protocol

    def append(self, stream: str, record: Mapping[str, Any]) -> None:
        crash_point("store.append.pre")
        before = self.count(stream)
        handle = self._handle(stream)
        line = encode_record(record if type(record) is dict else dict(record))
        handle.write(line)
        # ``mid`` flushes the newline-less line first, so the crash leaves
        # exactly the torn tail a real mid-write death leaves.
        crash_point("store.append.mid", flush=handle)
        handle.write("\n")
        if self._intent_active:
            # The intent's commit flushes the whole group once.
            self._pending.add(stream)
        else:
            handle.flush()
            self._sync(handle)
        # ``post`` dies with the record written through to the OS, inside
        # an intent too.
        crash_point("store.append.post", flush=handle)
        self._counts[stream] = before + 1
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc(f"store.appends.{stream}")
            telemetry.observe("store.record_bytes", len(line) + 1)

    def scan(
        self, stream: str, rows: Iterable[int] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Records of ``stream``, one line at a time.

        A process killed mid-append leaves a partial final line; that is
        expected crash damage (the record was never acknowledged), so it
        is skipped with a warning rather than raised.  Corruption
        *before* the final line still raises — it cannot be explained by
        a crash and silently dropping acknowledged records would be worse
        than failing.

        With ``rows``, only those rows are decoded, and the walk stops at
        the last one.  Ascending rows stream as they are found; any other
        order is gathered first (so only the requested records are held)
        and yielded in the order given.
        """
        if rows is None:
            for _, record in self._decode(stream, None):
                yield record
            return
        order = list(rows)
        wanted = set(order)
        if order == sorted(wanted):
            for _, record in self._decode(stream, wanted):
                yield record
            return
        found = dict(self._decode(stream, wanted))
        for row in order:
            yield found[row]

    def _lines(self, stream: str) -> Iterator[tuple[int, bytes, bool]]:
        """``(line number, stripped line, terminated?)`` of every
        non-blank line of ``stream``."""
        path = self._stream_path(stream)
        self._flush_pending(stream)
        if not path.exists():
            return
        with path.open("rb") as handle:
            for number, line in enumerate(handle, 1):
                raw = line.strip()
                if raw:
                    yield number, raw, line.endswith(b"\n")

    def _decode(
        self, stream: str, wanted: set[int] | None
    ) -> Iterator[tuple[int, dict[str, Any]]]:
        """``(row, record)`` for every row of ``stream`` in ``wanted``
        (every row when ``None``), in stream order."""
        remaining = None if wanted is None else len(wanted)
        if remaining == 0:
            return
        if wanted is not None and min(wanted) < 0:
            raise row_past_end(stream, min(wanted), self.count(stream))
        row = 0
        for number, raw, terminated in self._lines(stream):
            if wanted is None or row in wanted:
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError as error:
                    if terminated:
                        raise StoreError(
                            f"corrupt record in stream {stream!r} at "
                            f"{self._stream_path(stream)}:{number}: {error}"
                        ) from error
                    # No trailing newline: the final append was torn.
                    logger.warning(
                        "skipping torn trailing record (%d bytes) in stream "
                        "%r at line %d",
                        len(raw),
                        stream,
                        number,
                    )
                    break
                yield row, record
                if remaining is not None:
                    remaining -= 1
                    if not remaining:
                        return
            row += 1
        if remaining:
            raise row_past_end(stream, min(r for r in wanted if r >= row), row)

    def count(self, stream: str) -> int:
        """Records in ``stream``: lines are counted, not decoded (only an
        unterminated final line is parsed, to tell a record that lost its
        newline from a torn one)."""
        cached = self._counts.get(stream)
        if cached is None:
            cached = 0
            for _, raw, terminated in self._lines(stream):
                if terminated or _parses(raw):
                    cached += 1
            self._counts[stream] = cached
        return cached

    def streams(self) -> list[str]:
        for stream in list(self._pending):
            self._flush_pending(stream)
        return sorted(
            path.stem
            for path in self.directory.glob("*.jsonl")
            if path.stat().st_size > 0
        )

    def truncate(self, stream: str, keep: int) -> None:
        """Drop every record of ``stream`` past ``keep``.

        One :meth:`_cut` at the end of the ``keep``-th line: the kept
        prefix is never rewritten, so a crash leaves the stream either
        whole or cut.  A stream of at most ``keep`` complete lines is
        left as it is.
        """
        if keep < 0:
            raise StoreError("keep must be non-negative")
        path = self._stream_path(stream)
        self._flush_pending(stream)
        if not path.exists():
            return
        offset = kept = 0
        with path.open("rb") as handle:
            while kept < keep:
                line = handle.readline()
                if not line.endswith(b"\n"):
                    return
                kept += bool(line.strip())
                offset += len(line)
        if offset < path.stat().st_size:
            self._cut(path, offset)
            self._counts[stream] = keep

    def _cut(self, path: Path, size: int) -> None:
        """Shorten ``path`` to ``size`` bytes: the one way a stream shrinks."""
        stream = path.stem
        handle = self._handles.pop(stream, None)
        if handle is not None:
            handle.close()
        self._pending.discard(stream)
        self._counts.pop(stream, None)
        crash_point("store.truncate.pre")
        with path.open("r+b") as out:
            out.truncate(size)
            self._sync(out)
        crash_point("store.truncate.post")
        current_telemetry().inc(f"store.truncates.{stream}")

    def _flush_pending(self, stream: str) -> None:
        """Hand ``stream``'s buffered intent writes to the OS (reads see
        the file, not the buffer)."""
        if stream in self._pending:
            self._handles[stream].flush()

    # ------------------------------------------------------ write barriers

    @property
    def _intent_path(self) -> Path:
        return self.directory / INTENT_LOG

    def _journal_handle(self) -> IO[bytes]:
        if self._journal is None:
            self._journal = self._intent_path.open("ab")
        return self._journal

    def begin_intent(self, label: str) -> None:
        """Open a write barrier: journal every stream's byte size.

        Until :meth:`commit_intent`, the store is *provisional*: a crash
        leaves ``intent.log`` holding this begin record, and the next
        open cuts every stream back to its journaled size — so the
        writes between begin and commit land all-or-nothing.
        """
        if self._intent_active:
            raise StoreError(f"intent {label!r} begun inside an open intent")
        sizes = {}
        for stream in sorted(self._known):
            # Opening the append handle repairs a torn tail, so every
            # journaled size ends on a line boundary.
            handle = self._handle(stream)
            sizes[stream] = os.fstat(handle.fileno()).st_size
        journal = self._journal_handle()
        record = {"op": "begin", "label": label, "sizes": sizes}
        journal.write(encode_record(record).encode() + b"\n")
        journal.flush()
        self._sync(journal)
        self._intent_active = True

    def commit_intent(self) -> None:
        """Retire the open write barrier: the group of writes is final.

        Every stream the intent wrote is flushed (and fsynced under
        ``fsync=True``) first; then emptying the journal is the commit
        point: recovery rolls back only a journal whose last complete
        record is a begin.
        """
        if not self._intent_active:
            return
        for stream in sorted(self._pending):
            handle = self._handles[stream]
            handle.flush()
            self._sync(handle)
        self._pending.clear()
        journal = self._journal_handle()
        journal.truncate(0)
        self._sync(journal)
        self._intent_active = False

    # ------------------------------------------------------------ recovery

    def _recover(self) -> None:
        """Finish a crashed intent: roll it back, then drop the journal."""
        path = self._intent_path
        if not path.exists():
            return
        last: dict[str, Any] | None = None
        for line in path.read_bytes().split(b"\n"):
            line = line.strip()
            if not line:
                continue
            try:
                last = json.loads(line)
            except json.JSONDecodeError:
                # A torn record: the write never returned, so no stream
                # write can have happened under it.  Keep the last
                # complete record's verdict.
                continue
        if last is not None and last.get("op") == "begin":
            self._roll_back(last)
        path.unlink()

    def _roll_back(self, begin: dict[str, Any]) -> None:
        """Cut every stream back to the size ``begin`` journaled."""
        report = self.last_recovery
        label = report.intent_rolled_back = begin.get("label", "")
        sizes = begin.get("sizes")
        if sizes is None:
            raise StoreError(
                f"intent journal {self._intent_path} holds an open intent "
                f"{label!r} without stream sizes; it was written by an "
                "older store format and cannot be rolled back"
            )
        current = {
            path: path.stat().st_size
            for path in sorted(self.directory.glob("*.jsonl"))
        }
        for path, size in current.items():
            snapshot = sizes.get(path.stem, 0)
            if size < snapshot:
                # Checked before any cut, so a refused store is untouched.
                raise StoreError(
                    f"stream {path.stem!r} in {self.directory} holds {size} "
                    f"bytes, fewer than the {snapshot} its open intent "
                    f"{label!r} journaled; a crash cannot shrink a stream, "
                    "so the store was damaged"
                )
        for path, size in current.items():
            snapshot = sizes.get(path.stem)
            if snapshot is None:
                # Stream born inside the intent: remove it entirely.
                report.streams_removed.append(path.stem)
                path.unlink()
            elif size > snapshot:
                with path.open("rb") as handle:
                    handle.seek(snapshot)
                    dropped = handle.read().count(b"\n")
                if dropped:
                    report.records_rolled_back[path.stem] = dropped
                self._cut(path, snapshot)
        # A crash here leaves the streams cut and the journal in place;
        # the next open repeats the rollback, which then cuts nothing.
        crash_point("store.truncate.mid")
        logger.warning(
            "rolled back uncommitted intent %r: %s",
            label,
            report.records_rolled_back or "no records",
        )

    # ----------------------------------------------------------- integrity

    def check(self) -> dict[str, int]:
        """Validate every stream end to end; per-stream record counts.

        Eagerly repairs torn tails (recording them in
        :attr:`last_recovery`) and fully parses every stream, so interior
        corruption — damage a crash cannot explain — raises
        :class:`~repro.errors.StoreError` instead of lurking until the
        damaged record is next read.
        """
        counts: dict[str, int] = {}
        for stream in self.streams():
            self._repair_tail(self._stream_path(stream))
            counts[stream] = sum(1 for _ in self.scan(stream))
            self._counts[stream] = counts[stream]
        return counts

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Close every open file handle (appends reopen lazily).

        The journal is removed too unless an intent is still open, so a
        cleanly closed store holds only its ``*.jsonl`` streams.
        """
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._pending.clear()
        if self._journal is not None:
            self._journal.close()
            self._journal = None
            if not self._intent_active:
                self._intent_path.unlink(missing_ok=True)

    def __enter__(self) -> "JsonlStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JsonlStore({str(self.directory)!r}, run_id={self.run_id!r})"
