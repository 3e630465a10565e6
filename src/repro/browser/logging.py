"""Structured browser event log.

One :class:`BrowserLog` accumulates everything a browsing session does:
navigations (with cause and script provenance), tab opens, script fetches,
dialogs, downloads, notification prompts and beacons — plus the low-level
JS instrumentation log.  The backtracking-graph builder (§3.4) consumes
these records.  The entry dataclasses below are the log's read-side
view: the log itself keeps each entry as a row of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Type, TypeVar

from repro.js.instrumentation import InstrumentationLog


@dataclass(frozen=True)
class LogEntry:
    """Base class: every entry is timestamped and tab-scoped."""

    timestamp: float
    tab_id: int


@dataclass(frozen=True)
class NavigationEntry(LogEntry):
    """A URL appearing in a tab.

    ``cause`` is ``"initial"``, ``"http-redirect"``, ``"meta-refresh"``,
    ``"window-open"``, ``"timer"`` or a JS mechanism name; ``source_url``
    is the script responsible, when a script caused it.
    """

    url: str
    cause: str
    source_url: str | None = None
    referrer: str | None = None


@dataclass(frozen=True)
class TabOpenEntry(LogEntry):
    """A new tab opened (popup/pop-under); ``tab_id`` is the new tab."""

    parent_tab_id: int
    url: str
    source_url: str | None = None
    popunder: bool = False


@dataclass(frozen=True)
class ScriptFetchEntry(LogEntry):
    """Third-party script loaded into a page."""

    page_url: str
    script_url: str


@dataclass(frozen=True)
class FrameLoadEntry(LogEntry):
    """An iframe sub-document fetched into a page (banner ads)."""

    page_url: str
    frame_url: str


@dataclass(frozen=True)
class DialogEntry(LogEntry):
    """A JS modal / auth dialog, and whether instrumentation bypassed it."""

    kind: str
    message: str
    page_url: str
    bypassed: bool = True


@dataclass(frozen=True)
class DownloadEntry(LogEntry):
    """A file download triggered by page interaction."""

    url: str
    filename: str
    payload: object
    page_url: str
    source_url: str | None = None


@dataclass(frozen=True)
class NotificationPromptEntry(LogEntry):
    """A push-notification permission prompt (Chrome-notification SE).

    ``granted`` records whether the browser's policy clicked "Allow";
    ``push_endpoint`` is where a granted subscription gets pushes from.
    """

    page_url: str
    prompt_text: str
    push_endpoint: str | None = None
    granted: bool = False


@dataclass(frozen=True)
class BeaconEntry(LogEntry):
    """A tracking beacon fired by a script."""

    url: str
    page_url: str
    source_url: str | None = None


@dataclass(frozen=True)
class DnsFailureEntry(LogEntry):
    """A navigation whose host no longer resolves (dead attack domain)."""

    url: str


@dataclass(frozen=True)
class FetchFailureEntry(LogEntry):
    """A navigation lost to a transient fault the retry budget couldn't absorb."""

    url: str
    reason: str


@dataclass(frozen=True)
class TabCrashEntry(LogEntry):
    """A tab process that crashed at navigation launch and was not relaunched."""

    url: str


E = TypeVar("E", bound=LogEntry)


class BrowserLog:
    """Append-only, queryable session log that stores rows, not entries.

    A session writes ~12 entries per publisher visit and reads back only
    the few its ad records need, so an entry is stored as the raw tuple
    of its fields, in declaration order (``timestamp``, ``tab_id``, then
    the kind's own fields): one list of rows per entry kind and tab, plus
    the kind and tab of every entry in append order.  :meth:`add`
    appends a row; :meth:`rows` and :meth:`rows_since` read rows back.
    Entry objects are built only by the readers that ask for them
    (:meth:`entries_of`, :meth:`navigations`, :meth:`since`, iteration),
    each equal to the entry that was logged.
    """

    def __init__(self) -> None:
        #: Rows per entry kind, then per tab, in append order.
        self._rows: dict[type, dict[int, list[tuple]]] = {}
        #: The kind and the tab of every entry, in append order.
        self._kinds: list[type] = []
        self._tabs: list[int] = []
        self.js = InstrumentationLog()

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[LogEntry]:
        return self._entries(0, None)

    def add(self, kind: Type[LogEntry], row: tuple) -> None:
        """Record one entry of ``kind`` as its field tuple."""
        tab_id = row[1]
        tabs = self._rows.get(kind)
        if tabs is None:
            self._rows[kind] = {tab_id: [row]}
        else:
            rows = tabs.get(tab_id)
            if rows is None:
                tabs[tab_id] = [row]
            else:
                rows.append(row)
        self._kinds.append(kind)
        self._tabs.append(tab_id)

    def append(self, entry: LogEntry) -> None:
        """Record one entry object (stored as its row)."""
        self.add(type(entry), tuple(getattr(entry, item.name) for item in fields(entry)))

    def rows(self, kind: Type[LogEntry], tab_id: int) -> list[tuple]:
        """One tab's rows of one entry kind, in order: read, never mutate."""
        tabs = self._rows.get(kind)
        if tabs is None:
            return []
        return tabs.get(tab_id, [])

    def rows_since(self, mark: int, kind: Type[LogEntry]) -> list[tuple]:
        """The rows of one entry kind appended after ``mark``, all tabs."""
        if kind not in self._kinds[mark:]:
            return []
        return [row for _, row in self._walk(mark, {kind})]

    def entries_of(self, entry_type: Type[E]) -> list[E]:
        """All entries of one type (subclasses included), in order."""
        kinds = {kind for kind in self._rows if issubclass(kind, entry_type)}
        return list(self._entries(0, kinds))

    def navigations(self, tab_id: int | None = None) -> list[NavigationEntry]:
        """Navigation entries, optionally filtered to one tab."""
        if tab_id is None:
            return self.entries_of(NavigationEntry)
        return [NavigationEntry(*row) for row in self.rows(NavigationEntry, tab_id)]

    def downloads(self) -> list[DownloadEntry]:
        """All download entries."""
        return self.entries_of(DownloadEntry)

    def mark(self) -> int:
        """Current length; use with :meth:`since` to slice new activity."""
        return len(self._kinds)

    def since(self, mark: int) -> list[LogEntry]:
        """Entries appended after ``mark``."""
        return list(self._entries(mark, None))

    def _entries(self, start: int, kinds: set[type] | None) -> Iterator[LogEntry]:
        """Entries from position ``start`` on, of ``kinds`` (all if None)."""
        for kind, row in self._walk(start, kinds):
            yield kind(*row)

    def _walk(self, start: int, kinds: set[type] | None) -> Iterator[tuple[type, tuple]]:
        """``(kind, row)`` from position ``start`` on, of ``kinds`` (all if
        None), in append order."""
        later = list(zip(self._kinds[start:], self._tabs[start:]))
        # Each (kind, tab) list's first row past ``start``: its length,
        # less the rows appended after ``start``.
        cursor: dict[tuple[type, int], int] = {}
        for key in later:
            cursor[key] = cursor.get(key, 0) - 1
        for kind, tab_id in cursor:
            cursor[kind, tab_id] += len(self._rows[kind][tab_id])
        for key in later:
            index = cursor[key]
            cursor[key] = index + 1
            kind = key[0]
            if kinds is None or kind in kinds:
                yield kind, self._rows[kind][key[1]][index]
