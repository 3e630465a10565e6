"""Screenshot capture."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dom.page import PageContent, VisualSpec
from repro.imaging.dhash import visual_dhash
from repro.imaging.image import render_visual

#: Visual shown for pages that failed to load (dead domains, 404s).  These
#: look alike across domains, which is how the paper's one "spurious"
#: cluster (improper page loads) arises.
DEAD_PAGE_SPEC = VisualSpec(template_key="dead-page", variant=0, noise_level=0.0)


@dataclass(slots=True)
class Screenshot:
    """A captured screenshot with its provenance.

    The pixels are a pure function of ``spec``, so a capture keeps the
    spec and renders only when :attr:`image` is read.
    """

    url: str
    spec: VisualSpec
    timestamp: float
    tab_id: int

    @property
    def image(self) -> np.ndarray:
        """The rendered pixels (a fresh array on every read)."""
        return render_visual(self.spec)

    @property
    def dhash(self) -> int:
        """The 128-bit dhash of :attr:`image`, memoized per visual."""
        return visual_dhash(self.spec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Screenshot(url={self.url!r}, t={self.timestamp:.0f})"


def capture(page: PageContent | None, url: str, timestamp: float, tab_id: int) -> Screenshot:
    """Capture the screenshot of ``page`` (or the dead-page visual)."""
    spec = page.visual if page is not None else DEAD_PAGE_SPEC
    return Screenshot(url=url, spec=spec, timestamp=timestamp, tab_id=tab_id)
