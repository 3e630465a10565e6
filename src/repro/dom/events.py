"""DOM event listeners and click dispatch.

Low-tier ad networks attach click listeners to many elements (often the
whole document) from obfuscated JS.  The crawler only needs the *ordered
set of handlers* a click at a given element would fire; the browser then
executes them one by one, stopping after the first handler that produces
a popup or navigation (one ad per user gesture — which is why "greedy"
publisher pages stacking several ad networks pay out one ad per click,
and why the crawler repeats clicks at the same spot, §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.dom.nodes import Element


@dataclass(slots=True)
class EventListener:
    """A listener attached to an element.

    ``handler`` is an opaque JS program (a list of ops from
    :mod:`repro.js.api`); ``source_url`` records which script attached it,
    which feeds the backtracking graph.
    ``once`` models the "only the first click seems to follow this logic"
    behaviour the paper observed on transparent ads.
    """

    event_type: str
    handler: Any
    source_url: str
    once: bool = False
    fired_count: int = field(default=0)

    @property
    def spent(self) -> bool:
        """Whether a ``once`` listener has already fired."""
        return self.once and self.fired_count > 0

    def mark_fired(self) -> None:
        """Record one firing (the browser calls this after running it)."""
        self.fired_count += 1


def collect_click_handlers(
    target: Element,
    document: Element,
    listeners: Mapping[Element, list[EventListener]],
) -> list[EventListener]:
    """Return live listeners a click on ``target`` would fire, in order.

    ``listeners`` maps each node to the listeners one page load attached
    to it (a :class:`~repro.dom.page.PageLoad`'s ``listeners``).  Order
    is bubbling order: target's own listeners, then each ancestor's, then
    listeners on the document root (unless the root is already in the
    chain).  Spent ``once`` listeners are skipped; consumption is the
    caller's job (via :meth:`EventListener.mark_fired`) because a handler
    whose popup never materialized should stay armed.
    """
    chain: list[Element] = [target, *target.ancestors()]
    if document not in chain:
        chain.append(document)
    live: list[EventListener] = []
    for element in chain:
        for listener in listeners.get(element, ()):
            if listener.event_type != "click":
                continue
            if not listener.spent:
                live.append(listener)
    return live
