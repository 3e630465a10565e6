"""JSgraph-style instrumentation log.

The paper's custom Chromium logs *every* JS API call across the Blink–JS
bindings (unlike the original JSgraph, which covered a manually chosen
subset).  Our engine feeds every executed op through this log, tagged with
the provenance (script URL) and the page it ran on — the raw material for
ad-loading-process reconstruction (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.urlkit.url import Url


@dataclass(frozen=True)
class JsCallRecord:
    """One logged JS API call."""

    timestamp: float
    api: str
    args: tuple
    script_url: str | None
    page_url: str


class InstrumentationLog:
    """Append-only log of JS API calls.

    Every executed op is logged, but the crawl itself never reads the
    log back, so a call is stored as the raw tuple it arrived as (the
    page URL unrendered); :class:`JsCallRecord` objects are built only
    when the log is read.
    """

    def __init__(self) -> None:
        self._calls: list[tuple] = []

    def __len__(self) -> int:
        return len(self._calls)

    def __iter__(self) -> Iterator[JsCallRecord]:
        for timestamp, api, args, script_url, page_url in self._calls:
            yield JsCallRecord(
                timestamp=timestamp,
                api=api,
                args=args,
                script_url=script_url,
                page_url=str(page_url) if page_url else "",
            )

    def record(
        self,
        timestamp: float,
        api: str,
        args: tuple,
        script_url: str | None,
        page_url: "str | Url | None",
    ) -> None:
        """Append one call record; a :class:`~repro.urlkit.url.Url` is
        rendered on read, and None reads as ``""``."""
        self._calls.append((timestamp, api, args, script_url, page_url))
