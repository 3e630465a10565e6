"""Tests for the DOM element tree."""

from repro.dom.nodes import Element, anchor, div, iframe, img
from repro.dom.page import PageContent


class TestElement:
    def test_area(self):
        assert img("x.jpg", 100, 50).area == 5000

    def test_transparency(self):
        assert div(opacity=0.0).is_transparent
        assert div(opacity=0.005).is_transparent
        assert not div(opacity=0.5).is_transparent

    def test_append_sets_parent(self):
        root = div()
        child = root.append(img("a.jpg", 10, 10))
        assert child.parent is root
        assert root.children == [child]

    def test_constructor_children_get_parent(self):
        child = div()
        root = Element(tag="div", children=[child])
        assert child.parent is root

    def test_walk_preorder(self):
        root = div()
        a = root.append(div())
        b = a.append(img("x", 1, 1))
        c = root.append(iframe("y", 1, 1))
        assert list(root.walk()) == [root, a, b, c]

    def test_find_all(self):
        root = div()
        first = root.append(img("a", 1, 1))
        inner = root.append(div())
        second = inner.append(img("b", 1, 1))
        frame = inner.append(iframe("c", 1, 1))
        page = PageContent(title="t", document=root)
        assert page.find_all("img") == [first, second]
        assert page.find_all("img", "iframe") == [first, second, frame]
        load = page.instantiate()
        injected = load.inject(iframe("d", 1, 1))
        assert load.find_all("img", "iframe") == [first, second, frame, injected]

    def test_find_by_id(self):
        root = div()
        target = root.append(div(attrs={"id": "overlay"}))
        load = PageContent(title="t", document=root).instantiate()
        assert load.find_by_id("overlay") is target
        assert load.find_by_id("missing") is None
        injected = load.inject(div(attrs={"id": "late"}))
        assert load.find_by_id("late") is injected

    def test_ancestors(self):
        root = div()
        mid = root.append(div())
        leaf = mid.append(img("x", 1, 1))
        assert list(leaf.ancestors()) == [mid, root]

    def test_node_ids_unique(self):
        a, b = div(), div()
        assert a.node_id != b.node_id

    def test_source_text_contains_attrs(self):
        node = anchor("http://x.com/")
        assert 'href="http://x.com/"' in node.source_text()

    def test_source_text_nests(self):
        root = div()
        root.append(img("pic.jpg", 1, 1))
        text = root.source_text()
        assert text.startswith("<div") and "<img" in text


class TestBuilders:
    def test_img(self):
        node = img("a.jpg", 20, 10)
        assert node.tag == "img"
        assert node.attrs["src"] == "a.jpg"

    def test_iframe(self):
        node = iframe("f.html", 30, 40)
        assert node.tag == "iframe"
        assert node.area == 1200

    def test_anchor(self):
        assert anchor("http://a.com/").attrs["href"] == "http://a.com/"
