"""Tests for layout queries (crawler click heuristics)."""

from repro.dom.nodes import div, iframe, img
from repro.dom.render import clickable_candidates, full_page_overlays, viewport_area


class TestClickableCandidates:
    def test_sorted_by_area_descending(self):
        root = div(width=1000, height=800)
        small = root.append(img("s", 50, 50))
        big = root.append(img("b", 500, 400))
        frame = root.append(iframe("f", 300, 200))
        assert clickable_candidates(root.walk()) == [big, frame, small]

    def test_tracking_pixels_excluded(self):
        root = div(width=1000, height=800)
        root.append(img("pixel", 1, 1))
        assert clickable_candidates(root.walk()) == []

    def test_min_area_tunable(self):
        root = div(width=1000, height=800)
        node = root.append(img("x", 5, 5))
        assert clickable_candidates(root.walk(), minimum_area=25) == [node]

    def test_ties_break_on_node_id(self):
        root = div(width=1000, height=800)
        first = root.append(img("a", 100, 100))
        second = root.append(img("b", 100, 100))
        assert clickable_candidates(root.walk()) == [first, second]

    def test_divs_not_candidates(self):
        root = div(width=1000, height=800)
        root.append(div(width=500, height=500))
        assert clickable_candidates(root.walk()) == []


class TestOverlays:
    def test_full_page_transparent_overlay_found(self):
        root = div(width=1000, height=800)
        overlay = root.append(div(width=1000, height=800, opacity=0.0, z_index=9999))
        assert full_page_overlays(root, root.walk()) == [overlay]

    def test_opaque_div_not_overlay(self):
        root = div(width=1000, height=800)
        root.append(div(width=1000, height=800, opacity=1.0, z_index=9999))
        assert full_page_overlays(root, root.walk()) == []

    def test_small_transparent_div_not_overlay(self):
        root = div(width=1000, height=800)
        root.append(div(width=100, height=100, opacity=0.0, z_index=9999))
        assert full_page_overlays(root, root.walk()) == []

    def test_zero_z_index_not_overlay(self):
        root = div(width=1000, height=800)
        root.append(div(width=1000, height=800, opacity=0.0, z_index=0))
        assert full_page_overlays(root, root.walk()) == []

    def test_topmost_overlay_first(self):
        root = div(width=1000, height=800)
        low = root.append(div(width=1000, height=800, opacity=0.0, z_index=10))
        high = root.append(div(width=1000, height=800, opacity=0.0, z_index=99))
        assert full_page_overlays(root, root.walk()) == [high, low]

    def test_viewport_area(self):
        assert viewport_area(div(width=100, height=50)) == 5000
