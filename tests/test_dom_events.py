"""Tests for click dispatch and listener bubbling."""

from repro.dom.events import EventListener, collect_click_handlers
from repro.dom.nodes import div, img


def listener(name, once=False):
    return EventListener(event_type="click", handler=(name,), source_url=name, once=once)


class TestCollectClickHandlers:
    def test_target_then_ancestors_order(self):
        root = div()
        mid = root.append(div())
        leaf = mid.append(img("x", 10, 10))
        listeners = {
            leaf: [listener("leaf")],
            mid: [listener("mid")],
            root: [listener("root")],
        }
        fired = collect_click_handlers(leaf, root, listeners)
        assert [f.source_url for f in fired] == ["leaf", "mid", "root"]

    def test_document_included_when_detached(self):
        root = div()
        orphan = img("x", 10, 10)  # not attached under root
        fired = collect_click_handlers(orphan, root, {root: [listener("doc")]})
        assert [f.source_url for f in fired] == ["doc"]

    def test_document_not_duplicated(self):
        root = div()
        leaf = root.append(img("x", 10, 10))
        fired = collect_click_handlers(leaf, root, {root: [listener("doc")]})
        assert len(fired) == 1

    def test_non_click_listeners_ignored(self):
        root = div()
        listeners = {root: [EventListener(event_type="scroll", handler=(), source_url="s")]}
        assert collect_click_handlers(root, root, listeners) == []

    def test_spent_once_listeners_skipped(self):
        root = div()
        once = listener("once", once=True)
        listeners = {root: [once]}
        first = collect_click_handlers(root, root, listeners)
        assert first == [once]
        once.mark_fired()
        assert collect_click_handlers(root, root, listeners) == []

    def test_repeating_listener_stays_live(self):
        root = div()
        repeat = listener("repeat", once=False)
        repeat.mark_fired()
        repeat.mark_fired()
        assert collect_click_handlers(root, root, {root: [repeat]}) == [repeat]

    def test_unfired_once_listener_stays_armed(self):
        # A listener that was collected but never ran (popup blocked)
        # must remain available: consumption is explicit.
        root = div()
        once = listener("once", once=True)
        listeners = {root: [once]}
        collect_click_handlers(root, root, listeners)
        assert collect_click_handlers(root, root, listeners) == [once]


class TestEventListener:
    def test_spent_semantics(self):
        once = listener("a", once=True)
        assert not once.spent
        once.mark_fired()
        assert once.spent

    def test_fired_count(self):
        repeat = listener("b")
        repeat.mark_fired()
        repeat.mark_fired()
        assert repeat.fired_count == 2
        assert not repeat.spent
