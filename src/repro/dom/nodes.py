"""DOM element trees.

Only the properties the crawler's click heuristics need are modelled:
tag names, rendered sizes, z-order, opacity and ``src``/``href``
attributes.  A served page's tree is built once by its server and never
changed after its first load: everything a load adds (listeners, the
overlays and iframes scripts inject, loaded frame documents) lives in
that load's :class:`~repro.dom.page.PageLoad`, keyed by node.  Nodes
therefore compare by identity, and a node belongs to exactly one served
tree (or to the one load that injected it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

_ids = itertools.count(1)


@dataclass(eq=False, slots=True)
class Element:
    """One DOM node.

    ``width``/``height`` are the *rendered* dimensions in CSS pixels — the
    quantity the paper's crawler sorts on to find visually dominant
    images/iframes.  ``node_id`` is a process-unique label for debugging;
    document order, not the id, breaks layout ties.
    """

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["Element"] = field(default_factory=list)
    width: int = 0
    height: int = 0
    z_index: int = 0
    opacity: float = 1.0
    parent: "Element | None" = field(default=None, repr=False)
    node_id: int = field(default_factory=lambda: next(_ids))

    def __post_init__(self) -> None:
        for child in self.children:
            child.parent = self

    @property
    def area(self) -> int:
        """Rendered area in square pixels."""
        return self.width * self.height

    @property
    def is_transparent(self) -> bool:
        """Whether the element is visually invisible (opacity ~ 0)."""
        return self.opacity <= 0.01

    def append(self, child: "Element") -> "Element":
        """Attach ``child`` and return it (for chaining)."""
        child.parent = self
        self.children.append(child)
        return child

    def walk(self) -> Iterator["Element"]:
        """Yield self and all descendants, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def ancestors(self) -> Iterator["Element"]:
        """Yield parent, grandparent, ... up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def source_text(self) -> str:
        """A crude HTML-ish serialization, used by the source-code search
        engine (PublicWWW simulation) for invariant matching."""
        attrs = "".join(f' {key}="{value}"' for key, value in sorted(self.attrs.items()))
        inner = "".join(child.source_text() for child in self.children)
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"


def div(**kwargs: Any) -> Element:
    """Create a ``<div>``."""
    return Element(tag="div", **kwargs)


def img(src: str, width: int, height: int, **kwargs: Any) -> Element:
    """Create an ``<img>`` with a rendered size."""
    return Element(tag="img", attrs={"src": src}, width=width, height=height, **kwargs)


def iframe(src: str, width: int, height: int, **kwargs: Any) -> Element:
    """Create an ``<iframe>`` with a rendered size."""
    return Element(tag="iframe", attrs={"src": src}, width=width, height=height, **kwargs)


def anchor(href: str, width: int = 0, height: int = 0, **kwargs: Any) -> Element:
    """Create an ``<a href=...>``."""
    return Element(tag="a", attrs={"href": href}, width=width, height=height, **kwargs)
