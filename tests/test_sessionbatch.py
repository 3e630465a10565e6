"""The session kernel (repro.core.sessionbatch).

Unit-tests the machinery the kernel rests on — ``dhash128`` against a
brute-force reference, the per-visual hash memo
(:func:`~repro.imaging.dhash.visual_dhash`) across kernel entries and
milking, the kernel's crash points — and checks end to end that the
kernel reproduces the store bytes, canonical sim-lane trace, metrics
text and report recorded from the original scalar session loop
(``tests/golden.py``): for every seed and worker count, for the batch
``run()`` report, and for a crawl crashed inside the kernel's commit
phase and resumed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SeacmaPipeline, build_world
from repro.browser import browser as browser_module
from repro.browser.screenshot import DEAD_PAGE_SPEC, capture
from repro.chaos import (
    CRASH_POINTS,
    CrashDirective,
    CrashError,
    CrashPlan,
    install,
    reset,
)
from repro.core.farm import CrawlerFarm
from repro.dom.nodes import Element
from repro.dom.page import PageContent, VisualSpec
from repro.imaging.dhash import DHASH_BITS, dhash128, visual_dhash
from repro.imaging.image import render_visual, to_grayscale
from repro.store import JsonlStore
from repro.store.persist import load_world

from tests.golden import (
    MILKING,
    SEEDS,
    WORKERS,
    cached_batch_report_digest,
    cached_streaming_digests,
    golden,
    micro_config,
    run_key,
    stream_digests,
)


@pytest.fixture(autouse=True)
def _pristine_crash_state():
    reset()
    yield
    reset()


# ------------------------------------------------------------------- dhash


def reference_dhash(image: np.ndarray) -> int:
    """Brute-force dhash: one slice mean per grid cell, one bit per step."""
    gray = to_grayscale(image).astype(np.float64)
    height, width = gray.shape
    rows, cols = 8, 17
    grid = np.empty((rows, cols))
    for r in range(rows):
        top, bottom = r * height // rows, (r + 1) * height // rows
        for c in range(cols):
            left, right = c * width // cols, (c + 1) * width // cols
            # A bucket narrower than one pixel averages the pixel it starts on.
            block = gray[top : max(bottom, top + 1), left : max(right, left + 1)]
            grid[r, c] = block.mean()
    value = 0
    for r in range(rows):
        for c in range(cols - 1):
            value = (value << 1) | int(grid[r, c + 1] > grid[r, c])
    return value


class TestDhashVariants:
    def _sample_images(self) -> list[np.ndarray]:
        rng = np.random.default_rng(42)
        images = []
        for shape in [(72, 128), (72, 128), (31, 47), (8, 17), (5, 9), (72, 128, 3)]:
            for _ in range(3):
                images.append(rng.integers(0, 256, size=shape, dtype=np.uint8))
        return images

    def test_many_matches_scalar(self):
        for image in self._sample_images():
            assert dhash128(image) == reference_dhash(image)

    def test_rendered_screenshots_match(self):
        # The arrays the crawl actually hashes, not just random noise.
        specs = [
            VisualSpec(template_key=f"campaign-{i}", variant=i % 3,
                       noise_level=0.02 * (i % 2))
            for i in range(8)
        ] + [DEAD_PAGE_SPEC]
        for spec in specs:
            expected = reference_dhash(render_visual(spec))
            assert dhash128(render_visual(spec)) == expected
            assert visual_dhash(spec) == expected

    def test_empty_batch(self):
        # An edge-free frame sets no bit, whatever its shape or channels.
        for shape in [(72, 128), (5, 9), (72, 128, 3)]:
            flat = np.full(shape, 99, dtype=np.uint8)
            assert dhash128(flat) == reference_dhash(flat) == 0

    def test_mixed_shapes_keep_input_order(self):
        # Bits run row by row, most significant first.
        ramp = np.tile(np.arange(17, dtype=np.uint8), (8, 1))
        assert dhash128(ramp) == reference_dhash(ramp) == (1 << DHASH_BITS) - 1
        step = np.zeros((8, 17), dtype=np.uint8)
        step[0, 1:] = 200
        assert dhash128(step) == reference_dhash(step) == 1 << (DHASH_BITS - 1)


# ---------------------------------------------------------------- hash memo


class TestHashMemo:
    def test_hit_miss_accounting(self):
        spec = VisualSpec(template_key="memo/accounting", variant=3, noise_level=0.02)
        visual_dhash.cache_clear()
        first = visual_dhash(spec)
        again = visual_dhash(VisualSpec(template_key="memo/accounting", variant=3,
                                        noise_level=0.02))
        info = visual_dhash.cache_info()
        assert first == again == dhash128(render_visual(spec))
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_bounded_lru_eviction(self):
        # The memo is bounded: a 93k-publisher run cannot grow it without limit.
        assert visual_dhash.cache_info().maxsize == 16384


# ---------------------------------------------------- capture and the kernel


def _capture_specs(monkeypatch) -> list[VisualSpec]:
    """Record the spec of every screenshot the browser captures."""
    specs: list[VisualSpec] = []

    def recording_capture(*args, **kwargs):
        shot = capture(*args, **kwargs)
        specs.append(shot.spec)
        return shot

    monkeypatch.setattr(browser_module, "capture", recording_capture)
    return specs


class TestDeferredRecorder:
    def test_placeholders_resolve_to_scalar_hashes(self):
        spec = VisualSpec(template_key="capture/live", variant=2, noise_level=0.02)
        page = PageContent(title="live", document=Element("html"), visual=spec)
        live = capture(page, "http://live.example/", 10.0, 1)
        dead = capture(None, "http://dead.example/", 11.0, 2)
        assert live.dhash == dhash128(render_visual(spec))
        assert np.array_equal(live.image, render_visual(spec))
        assert dead.spec == DEAD_PAGE_SPEC
        assert dead.dhash == dhash128(render_visual(DEAD_PAGE_SPEC))

    def test_memo_carries_hashes_across_domains(self, monkeypatch):
        # Two kernel entries over the same pages: the second hashes nothing.
        def crawl_first_publisher() -> list[int]:
            world = build_world(micro_config(7))
            dataset = CrawlerFarm(world).crawl([world.publishers[0].domain])
            return [record.screenshot_hash for record in dataset.interactions]

        specs = _capture_specs(monkeypatch)
        visual_dhash.cache_clear()
        first = crawl_first_publisher()
        misses = visual_dhash.cache_info().misses
        assert specs and misses == len(set(specs))
        assert crawl_first_publisher() == first
        assert first and visual_dhash.cache_info().misses == misses


class TestMilkingHashes:
    def test_each_visual_hashed_at_most_once(self, monkeypatch):
        specs = _capture_specs(monkeypatch)
        visual_dhash.cache_clear()
        result = SeacmaPipeline(
            build_world(micro_config(7)), milking_config=MILKING
        ).run()
        assert result.milking is not None and result.milking.sessions
        assert 0 < visual_dhash.cache_info().misses <= len(set(specs))


# -------------------------------------------------------------- crash points


class TestKernelSelection:
    def test_sessionbatch_crash_points_in_catalog(self):
        assert "farm.sessionbatch.pre" in CRASH_POINTS
        assert "farm.sessionbatch.post" in CRASH_POINTS


# ------------------------------------------------------------- end-to-end


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_streaming_run_byte_identical(self, seed, workers):
        expected = golden()["streaming"][run_key(seed, workers)]
        assert cached_streaming_digests(seed, workers) == expected

    def test_batch_mode_report_byte_identical(self):
        expected = golden()["batch_report"]["seed7"]
        assert cached_batch_report_digest(7) == expected

    @pytest.mark.parametrize(
        "point", ["farm.sessionbatch.pre", "farm.sessionbatch.post"]
    )
    def test_resume_after_kernel_crash_byte_identical(self, tmp_path, point):
        # A run crashed mid-resolve and resumed must leave the store bytes
        # of the golden uninterrupted run.
        expected = golden()["streaming"][run_key(7, 1)]["streams"]
        store_dir = tmp_path / "crashed"
        store = JsonlStore(store_dir)
        install(CrashPlan(CrashDirective(point, occurrence=3)))
        try:
            with pytest.raises(CrashError):
                SeacmaPipeline(
                    build_world(micro_config(7)), milking_config=MILKING
                ).run_streaming(store=store)
        finally:
            install(None)
        store.close()

        store = JsonlStore.open(store_dir)
        world = load_world(store)
        SeacmaPipeline(world, milking_config=MILKING).resume_streaming(store)
        store.close()
        assert stream_digests(store_dir) == expected
