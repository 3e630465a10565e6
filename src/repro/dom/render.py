"""Layout queries over rendered pages.

These implement the geometric half of the crawler heuristics from §3.2:
"identify elements such as images and iframes, compute their rendering size
on the page and sort them in descending order of their size".

Both rankings take nodes in document order and break every tie on that
order (Python's sort is stable), so a served page's cached ranking plus a
load's injected nodes ranks exactly like the whole loaded document.
"""

from __future__ import annotations

from typing import Iterable

from repro.dom.nodes import Element

_CLICKABLE_TAGS = ("img", "iframe")


def viewport_area(document: Element) -> int:
    """The page's viewport area (the root element's rendered size)."""
    return document.area


def clickable_candidates(
    nodes: Iterable[Element], minimum_area: int = 100
) -> list[Element]:
    """Images and iframes among ``nodes`` by descending rendered area.

    ``nodes`` come in document order (``document.walk()``, or a page's
    cached node list), and ties keep that order.  Tiny elements (tracking
    pixels) are excluded.
    """
    candidates = [
        node
        for node in nodes
        if node.tag in _CLICKABLE_TAGS and node.area >= minimum_area
    ]
    candidates.sort(key=lambda node: -node.area)
    return candidates


def full_page_overlays(document: Element, nodes: Iterable[Element]) -> list[Element]:
    """Transparent divs among ``nodes`` covering at least 90% of
    ``document``'s viewport, topmost first; ties keep document order.

    These are the "transparent ad" overlays of Figure 1: invisible,
    full-page, high z-order elements with click listeners.
    """
    page_area = max(viewport_area(document), 1)
    overlays = [
        node
        for node in nodes
        if node.tag == "div"
        and node is not document
        and node.is_transparent
        and node.area / page_area >= 0.9
        and node.z_index > 0
    ]
    overlays.sort(key=lambda node: -node.z_index)
    return overlays
