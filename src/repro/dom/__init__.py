"""Simulated DOM: element trees, events, layout and page content."""

from repro.dom.nodes import Element, anchor, div, iframe, img
from repro.dom.events import EventListener, collect_click_handlers
from repro.dom.render import (
    clickable_candidates,
    full_page_overlays,
    viewport_area,
)
from repro.dom.page import PageContent, PageFeatures, PageLoad, VisualSpec

__all__ = [
    "Element",
    "div",
    "img",
    "iframe",
    "anchor",
    "EventListener",
    "collect_click_handlers",
    "clickable_candidates",
    "full_page_overlays",
    "viewport_area",
    "PageContent",
    "PageFeatures",
    "PageLoad",
    "VisualSpec",
]
