"""Page content: what a virtual server returns for a document request.

A :class:`PageContent` bundles the DOM tree, the scripts to run at load
time, the page's *visual specification* (from which screenshots are
rendered) and page-level behaviours like meta refresh.

Served pages are immutable and shared.  A server may hand the same
:class:`PageContent` to every request, and every browser load of it reads
the same tree; the tree must not change after its first load.  On that
first load the page builds its pre-order node list once, and the list
answers every structural query a load asks (tag lookups, clickable
candidates, full-page overlays, landing-page features).  What a load adds
— listeners, injected overlays and iframes, loaded frame documents —
lives in that load's :class:`PageLoad`, keyed by node, and dies with it.

``labels`` carries ground-truth annotations (campaign id, page kind) used
ONLY for evaluating the pipeline against the simulated world.  The
discovery pipeline itself never reads them — it works from screenshots,
URLs and browser logs exactly as the paper's system does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.dom.events import EventListener, collect_click_handlers
from repro.dom.nodes import Element
from repro.dom.render import clickable_candidates, full_page_overlays
from repro.net.http import ReferrerPolicy


@dataclass(frozen=True)
class VisualSpec:
    """How a page looks, for the screenshot renderer.

    ``template_key`` selects the deterministic base image (one per campaign
    or benign page family); ``variant`` seeds small per-page perturbations
    (different domain text, timestamps) and ``noise_level`` controls their
    amplitude.  Pages of one campaign share a template and differ only in
    variant — exactly the near-duplicate structure perceptual hashing
    exploits.
    """

    template_key: str
    variant: int = 0
    noise_level: float = 0.02


@dataclass(frozen=True, slots=True)
class PageFeatures:
    """Lightweight structural features of a landing page.

    Captured by the crawler for every landing page (the real system's
    logs contain the full DOM, so these are derivable offline); consumed
    by automated triage helpers like the parked-domain detector
    (:mod:`repro.analysis.parking`).
    """

    n_scripts: int = 0
    n_images: int = 0
    n_anchors: int = 0
    n_offsite_anchors: int = 0
    title: str = ""

    @classmethod
    def from_page(cls, page: "PageContent", host: str) -> "PageFeatures":
        """Extract features from a served page reached at ``host``."""
        anchors = page.find_all("a")
        offsite = 0
        for node in anchors:
            href = node.attrs.get("href", "")
            if "://" in href and f"://{host}" not in href:
                offsite += 1
        return cls(
            n_scripts=len(page.scripts),
            n_images=len(page.find_all("img")),
            n_anchors=len(anchors),
            n_offsite_anchors=offsite,
            title=page.title,
        )


@dataclass
class PageContent:
    """A renderable page, as served (shared by every load of it)."""

    title: str
    document: Element
    scripts: list[Any] = field(default_factory=list)
    visual: VisualSpec = VisualSpec(template_key="blank")
    meta_refresh: tuple[float, str] | None = None
    referrer_policy: ReferrerPolicy = ReferrerPolicy.DEFAULT
    labels: dict[str, Any] = field(default_factory=dict)
    _nodes: tuple[Element, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _candidates: tuple[Element, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _overlays: tuple[Element, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _iframes: tuple[Element, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _features: dict[str, PageFeatures] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def source_text(self) -> str:
        """Page source for code-search indexing: DOM plus script bodies."""
        parts = [self.document.source_text()]
        for script in self.scripts:
            text = getattr(script, "source_text", "")
            if text:
                parts.append(text)
        return "\n".join(parts)

    @property
    def nodes(self) -> tuple[Element, ...]:
        """Every node of the served tree in pre-order, built on first use."""
        if self._nodes is None:
            self._nodes = tuple(self.document.walk())
        return self._nodes

    def find_all(self, *tags: str) -> list[Element]:
        """Served nodes whose tag is in ``tags``, in document order."""
        return _with_tags(self.nodes, tags)

    def candidates(self) -> tuple[Element, ...]:
        """The served tree's :func:`clickable_candidates`."""
        if self._candidates is None:
            self._candidates = tuple(clickable_candidates(self.nodes))
        return self._candidates

    def overlays(self) -> tuple[Element, ...]:
        """The served tree's :func:`full_page_overlays`."""
        if self._overlays is None:
            self._overlays = tuple(full_page_overlays(self.document, self.nodes))
        return self._overlays

    def iframes(self) -> tuple[Element, ...]:
        """The served tree's iframes, in document order."""
        if self._iframes is None:
            self._iframes = tuple(_with_tags(self.nodes, ("iframe",)))
        return self._iframes

    def features(self, host: str) -> PageFeatures:
        """This page's :class:`PageFeatures` when reached at ``host``,
        extracted once per host."""
        if self._features is None:
            self._features = {}
        found = self._features.get(host)
        if found is None:
            found = self._features[host] = PageFeatures.from_page(self, host)
        return found

    def instantiate(self) -> "PageLoad":
        """Begin one browser load of this page.

        Scripts attach listeners and inject overlays and frames at load
        time; that state belongs to the returned load and never leaks into
        the served page, other loads or other browsers.
        """
        return PageLoad(self)


def _with_tags(nodes: tuple[Element, ...], tags: tuple[str, ...]) -> list[Element]:
    """The ``nodes`` whose tag is in ``tags``, in their order."""
    return [node for node in nodes if node.tag in tags]


class PageLoad:
    """One load of a served page: the page plus only what the load added.

    ``listeners`` maps a node to the listeners scripts attached to it;
    ``frames`` maps an iframe node to the load of its sub-document;
    ``injected`` holds the nodes scripts appended to the document root,
    in injection order.  An injected node's ``parent`` is the served root,
    but the served root's ``children`` never change: document order for
    this load is the served pre-order followed by the injected nodes.
    """

    __slots__ = ("page", "listeners", "frames", "injected", "_overlays")

    def __init__(self, page: PageContent) -> None:
        self.page = page
        self.listeners: dict[Element, list[EventListener]] = {}
        self.frames: dict[Element, PageLoad] = {}
        self.injected: list[Element] = []
        self._overlays: tuple[Element, ...] | None = None

    @property
    def document(self) -> Element:
        """The document root (the served page's root)."""
        return self.page.document

    @property
    def nodes(self) -> tuple[Element, ...]:
        """This load's nodes in document order."""
        served = self.page.nodes
        return (*served, *self.injected) if self.injected else served

    def find_all(self, *tags: str) -> list[Element]:
        """This load's nodes whose tag is in ``tags``, in document order."""
        return _with_tags(self.nodes, tags)

    def find_by_id(self, dom_id: str) -> Element | None:
        """First node in document order whose ``id`` is ``dom_id``."""
        for node in self.nodes:
            if node.attrs.get("id") == dom_id:
                return node
        return None

    def inject(self, node: Element) -> Element:
        """Append ``node`` to the document root, for this load only."""
        node.parent = self.page.document
        self.injected.append(node)
        self._overlays = None
        return node

    def add_listener(self, node: Element, listener: EventListener) -> None:
        """Attach ``listener`` to ``node`` for this load."""
        self.listeners.setdefault(node, []).append(listener)

    def click_handlers(self, target: Element) -> list[EventListener]:
        """Live listeners a click on ``target`` fires, in bubbling order."""
        return collect_click_handlers(target, self.page.document, self.listeners)

    def candidates(self) -> tuple[Element, ...]:
        """Images and iframes by descending area; ties keep document order."""
        served = self.page.candidates()
        if not self.injected:
            return served
        return tuple(clickable_candidates((*served, *self.injected)))

    def iframes(self) -> tuple[Element, ...]:
        """This load's iframes in document order: served, then injected."""
        served = self.page.iframes()
        if not self.injected:
            return served
        return (*served, *(node for node in self.injected if node.tag == "iframe"))

    def overlays(self) -> tuple[Element, ...]:
        """Transparent full-page overlays, topmost first; ties keep
        document order.

        Cached per load until the next injection: every click asks, and
        the crawler clicks one load many times (on ``crawl`` seed 3, 26,296
        of the 32,556 lookups on injecting loads repeat one).
        """
        if self._overlays is None:
            served = self.page.overlays()
            self._overlays = (
                tuple(full_page_overlays(self.page.document, (*served, *self.injected)))
                if self.injected
                else served
            )
        return self._overlays
