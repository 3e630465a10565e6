"""Durable run store: one append-only JSONL file per stream.

Layout of a store directory::

    <dir>/meta.jsonl            # key/value metadata records
    <dir>/interactions.jsonl    # one record per crawled ad interaction
    <dir>/hashes.jsonl          # clustering inputs
    <dir>/campaigns.jsonl       # discovered campaigns
    <dir>/attribution.jsonl     # per-interaction attribution rows
    <dir>/milking.jsonl         # milking samples + summary
    <dir>/progress.jsonl        # per-domain crawl progress markers
    <dir>/intent.log            # open write-barrier record, if any

Every write is a single ``json.dumps`` line flushed to disk, so a run
killed mid-crawl loses at most the record being written; ``repro resume``
reloads the directory and continues from the last progress marker.

Durability model (see DESIGN.md, "Chaos & durability"):

* *torn tails* — a partial trailing line from a killed append — are
  expected damage: skipped on read, cut off before the next append;
* *truncation is atomic*: the kept prefix is written to a sibling
  ``<stream>.jsonl.tmp`` and swapped in with :func:`os.replace`, so a
  crash mid-truncate leaves either the old file or the new one, never a
  half-rewritten stream;
* *multi-stream updates* (a crawl batch's rows + its progress marker,
  the finalize block) are bracketed by an **intent record** in
  ``intent.log``: :meth:`begin_intent` snapshots every stream's record
  count before the first write, :meth:`commit_intent` retires the
  snapshot after the last.  Opening a store that died inside an intent
  rolls every stream back to the snapshot, so the group takes effect
  all-or-nothing;
* ``fsync=True`` additionally fsyncs after every append and before
  every truncate swap — the paranoid mode for real deployments; off by
  default because the simulation's crash model (process death, not
  power loss) only needs the OS-level write ordering.

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
from typing import Any, IO, Mapping

from repro.chaos.points import crash_point
from repro.errors import StoreError

#: One reusable encoder for every store write.  ``json.dumps`` with
#: non-default keyword arguments constructs a fresh ``JSONEncoder`` per
#: call; at ~170k appends per mid-sized run that construction is pure
#: overhead.  The output bytes are identical to
#: ``json.dumps(obj, separators=(",", ":"), sort_keys=True)``.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_encode = _ENCODER.encode
from repro.store.base import META, StoreBase
from repro.telemetry import current as current_telemetry

_STREAM_NAME = re.compile(r"^[a-z][a-z0-9_-]*$")

#: Name of the write-barrier journal.  Outside the ``*.jsonl`` stream
#: namespace on purpose: :meth:`JsonlStore.streams` and byte-identity
#: comparisons over ``*.jsonl`` never see it.
INTENT_LOG = "intent.log"

logger = logging.getLogger(__name__)


@dataclass
class RecoveryReport:
    """What opening (or checking) a store had to repair."""

    #: Orphaned ``*.jsonl.tmp`` files removed (interrupted truncates).
    stale_temps: list[str] = field(default_factory=list)
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
        return not (
            self.stale_temps
            or self.torn_tails
            or self.intent_rolled_back is not None
        )


class JsonlStore(StoreBase):
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
        self.last_recovery = RecoveryReport()
        self._recover()
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
        return handle

    def _repair_tail(self, path: Path) -> None:
        """Truncate a torn trailing record before appending after it.

        A process killed mid-``write`` leaves a partial final line;
        appending behind it would corrupt the *next* record too, so the
        tail is cut back to the last complete record first.
        """
        if not path.exists():
            return
        data = path.read_bytes()
        if not data:
            return
        end = data.rfind(b"\n")
        keep = data[: end + 1] if end >= 0 else b""
        tail = data[end + 1 :] if end >= 0 else data
        if not tail.strip():
            return
        try:
            json.loads(tail)
        except json.JSONDecodeError:
            pass
        else:
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
        with path.open("r+b") as handle:
            handle.truncate(len(keep))
        self._counts.pop(path.stem, None)
        self.last_recovery.torn_tails[path.stem] = (
            self.last_recovery.torn_tails.get(path.stem, 0) + len(tail)
        )

    def _sync(self, handle: IO[str]) -> None:
        if self.fsync:
            os.fsync(handle.fileno())

    # ------------------------------------------------------------- protocol

    def append(self, stream: str, record: Mapping[str, Any]) -> None:
        crash_point("store.append.pre")
        before = self.count(stream)
        handle = self._handle(stream)
        line = _encode(dict(record))
        handle.write(line)
        # ``mid`` flushes the newline-less line first, so the crash leaves
        # exactly the torn tail a real mid-write death leaves.
        crash_point("store.append.mid", flush=handle)
        handle.write("\n")
        handle.flush()
        self._sync(handle)
        crash_point("store.append.post")
        self._counts[stream] = before + 1
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc(f"store.appends.{stream}")
            telemetry.observe("store.record_bytes", len(line) + 1)

    def read(self, stream: str) -> list[dict[str, Any]]:
        """All records in ``stream``, tolerating a torn trailing record.

        A process killed mid-append leaves a partial final line; that is
        expected crash damage (the record was never acknowledged), so it
        is skipped with a warning rather than raised.  Corruption
        *before* the final line still raises — it cannot be explained by
        a crash and silently dropping acknowledged records would be worse
        than failing.
        """
        path = self._stream_path(stream)
        if not path.exists():
            return []
        data = path.read_bytes()
        lines = data.split(b"\n")
        records: list[dict[str, Any]] = []
        last_index = len(lines) - 1
        for index, raw in enumerate(lines):
            raw = raw.strip()
            if not raw:
                continue
            try:
                records.append(json.loads(raw))
            except json.JSONDecodeError as error:
                if index == last_index:
                    # No trailing newline: the final append was torn.
                    logger.warning(
                        "skipping torn trailing record (%d bytes) at %s:%d",
                        len(raw),
                        path,
                        index + 1,
                    )
                    continue
                raise StoreError(
                    f"corrupt record at {path}:{index + 1}: {error}"
                ) from error
        return records

    def count(self, stream: str) -> int:
        cached = self._counts.get(stream)
        if cached is None:
            cached = len(self.read(stream))
            self._counts[stream] = cached
        return cached

    def streams(self) -> list[str]:
        return sorted(
            path.stem
            for path in self.directory.glob("*.jsonl")
            if path.stat().st_size > 0
        )

    def truncate(self, stream: str, keep: int) -> None:
        """Atomically drop every record of ``stream`` past ``keep``.

        The surviving prefix is written to ``<stream>.jsonl.tmp`` and
        swapped in with :func:`os.replace`: at no instant does the stream
        file hold less than either the old or the new contents, so a
        crash anywhere inside leaves nothing to lose — at worst a stale
        temp file the next open sweeps up.
        """
        if keep < 0:
            raise StoreError("keep must be non-negative")
        path = self._stream_path(stream)
        if not path.exists():
            return
        crash_point("store.truncate.pre")
        handle = self._handles.pop(stream, None)
        if handle is not None:
            handle.close()
        records = self.read(stream)[:keep]
        temp = path.with_name(path.name + ".tmp")
        with temp.open("w", encoding="utf-8") as out:
            for record in records:
                out.write(_encode(record))
                out.write("\n")
            out.flush()
            self._sync(out)
        # The replacement is fully on disk; the swap is the commit point.
        crash_point("store.truncate.mid")
        os.replace(temp, path)
        crash_point("store.truncate.post")
        self._counts[stream] = len(records)
        current_telemetry().inc(f"store.truncates.{stream}")

    # ------------------------------------------------------ write barriers

    @property
    def _intent_path(self) -> Path:
        return self.directory / INTENT_LOG

    def begin_intent(self, label: str) -> None:
        """Open a write barrier: snapshot every stream's record count.

        Until :meth:`commit_intent`, the store is *provisional*: a crash
        leaves ``intent.log`` ending in this begin record, and the next
        open rolls every stream back to the snapshot — so the writes
        between begin and commit land all-or-nothing.
        """
        if self._intent_active:
            raise StoreError(f"intent {label!r} begun inside an open intent")
        counts = {stream: self.count(stream) for stream in self.streams()}
        record = {"op": "begin", "label": label, "counts": counts}
        with self._intent_path.open("a", encoding="utf-8") as handle:
            handle.write(_encode(record))
            handle.write("\n")
            handle.flush()
            self._sync(handle)
        self._intent_active = True

    def commit_intent(self) -> None:
        """Retire the open write barrier: the group of writes is final.

        A commit record is flushed before the journal is removed, so a
        crash between the two still reads as committed — recovery never
        rolls back work whose commit reached disk.
        """
        if not self._intent_active:
            return
        with self._intent_path.open("a", encoding="utf-8") as handle:
            handle.write('{"op":"commit"}\n')
            handle.flush()
            self._sync(handle)
        self._intent_path.unlink()
        self._intent_active = False

    # ------------------------------------------------------------ recovery

    def _recover(self) -> None:
        """Sweep up after a crash: stale temps, then the intent journal."""
        report = self.last_recovery
        for temp in sorted(self.directory.glob("*.jsonl.tmp")):
            report.stale_temps.append(temp.name)
            temp.unlink()
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
        """Undo every stream write made after ``begin`` was journaled."""
        report = self.last_recovery
        report.intent_rolled_back = begin.get("label", "")
        counts = begin.get("counts", {})
        for path in sorted(self.directory.glob("*.jsonl")):
            stream = path.stem
            snapshot = counts.get(stream)
            if snapshot is None:
                # Stream born inside the intent: remove it entirely.
                report.streams_removed.append(stream)
                path.unlink()
                self._counts.pop(stream, None)
                continue
            self._repair_tail(path)
            current = self.count(stream)
            if current > snapshot:
                report.records_rolled_back[stream] = current - snapshot
                self.truncate(stream, snapshot)
        logger.warning(
            "rolled back uncommitted intent %r: %s",
            report.intent_rolled_back,
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
            records = self.read(stream)
            counts[stream] = len(records)
            self._counts[stream] = len(records)
        return counts

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Close every open file handle (appends reopen lazily)."""
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def __enter__(self) -> "JsonlStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JsonlStore({str(self.directory)!r}, run_id={self.run_id!r})"
