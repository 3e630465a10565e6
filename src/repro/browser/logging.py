"""Structured browser event log.

One :class:`BrowserLog` accumulates everything a browsing session does:
navigations (with cause and script provenance), tab opens, script fetches,
dialogs, downloads, notification prompts and beacons — plus the low-level
JS instrumentation log.  The backtracking-graph builder (§3.4) consumes
these records.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Append-only, queryable session log, indexed by entry type."""

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []
        #: Entries per entry class (and each of its LogEntry bases), in order.
        self._by_type: dict[type, list[LogEntry]] = {LogEntry: self._entries}
        self.js = InstrumentationLog()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def append(self, entry: LogEntry) -> None:
        """Record one entry."""
        self._entries.append(entry)
        by_type = self._by_type
        for cls in type(entry).__mro__:
            if cls is LogEntry:
                break
            found = by_type.get(cls)
            if found is None:
                by_type[cls] = [entry]
            else:
                found.append(entry)

    def entries_of(self, entry_type: Type[E]) -> list[E]:
        """All entries of one type (subclasses included), in order."""
        return list(self._by_type.get(entry_type, ()))

    def navigations(self, tab_id: int | None = None) -> list[NavigationEntry]:
        """Navigation entries, optionally filtered to one tab."""
        found = self.entries_of(NavigationEntry)
        if tab_id is None:
            return found
        return [entry for entry in found if entry.tab_id == tab_id]

    def downloads(self) -> list[DownloadEntry]:
        """All download entries."""
        return self.entries_of(DownloadEntry)

    def mark(self) -> int:
        """Current length; use with :meth:`since` to slice new activity."""
        return len(self._entries)

    def since(self, mark: int) -> list[LogEntry]:
        """Entries appended after ``mark``."""
        return self._entries[mark:]
