"""In-memory run store: the zero-dependency default backend."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.store.base import RunStore, row_past_end


class MemoryStore(RunStore):
    """Append-only streams held as plain lists.

    Records are shallow-copied on append so later caller-side mutation
    cannot rewrite history — the same isolation a durable backend gives.
    """

    def __init__(self, run_id: str = "in-memory") -> None:
        self.run_id = run_id
        self._streams: dict[str, list[dict[str, Any]]] = {}

    def append(self, stream: str, record: Mapping[str, Any]) -> None:
        self._streams.setdefault(stream, []).append(dict(record))

    def scan(
        self, stream: str, rows: Iterable[int] | None = None
    ) -> Iterator[dict[str, Any]]:
        records = self._streams.get(stream, [])
        if rows is None:
            rows = range(len(records))
        for row in rows:
            if not 0 <= row < len(records):
                raise row_past_end(stream, row, len(records))
            yield records[row]

    def count(self, stream: str) -> int:
        return len(self._streams.get(stream, ()))

    def streams(self) -> list[str]:
        return sorted(name for name, records in self._streams.items() if records)

    def truncate(self, stream: str, keep: int) -> None:
        if keep < 0:
            raise ValueError("keep must be non-negative")
        records = self._streams.get(stream)
        if records is not None:
            del records[keep:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {name: len(records) for name, records in self._streams.items()}
        return f"MemoryStore(run_id={self.run_id!r}, streams={sizes})"
