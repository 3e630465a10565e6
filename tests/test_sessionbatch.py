"""The session kernel (repro.core.sessionbatch).

Unit-tests the machinery the kernel rests on — the batched dhash against
the per-image reference, the content-addressed hash memo, the deferred
recorder's placeholder resolution, the resolve-phase chaos points — and
checks end to end that the kernel reproduces the store bytes, canonical
sim-lane trace, metrics text and report recorded from the original
scalar session loop (``tests/golden.py``): for every seed and worker
count, for the batch ``run()`` report, and for a crawl crashed inside
the resolve phase and resumed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SeacmaPipeline, build_world
from repro.chaos import (
    CRASH_POINTS,
    CrashDirective,
    CrashError,
    CrashPlan,
    install,
    reset,
)
from repro.core.sessionbatch import DeferredRecorder, HashMemo
from repro.imaging.dhash import dhash128, dhash128_many
from repro.imaging.image import render_visual
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


class TestDhashVariants:
    def _sample_images(self) -> list[np.ndarray]:
        rng = np.random.default_rng(42)
        images = []
        for shape in [(72, 128), (72, 128), (31, 47), (8, 17), (5, 9)]:
            for _ in range(3):
                images.append(rng.integers(0, 256, size=shape, dtype=np.uint8))
        return images

    def test_many_matches_scalar(self):
        images = self._sample_images()
        assert dhash128_many(images) == [dhash128(image) for image in images]

    def test_rendered_screenshots_match(self):
        # The arrays the crawl actually hashes, not just random noise.
        from repro.dom.page import VisualSpec

        specs = [
            VisualSpec(template_key=f"campaign-{i}", variant=i % 3,
                       noise_level=0.02 * (i % 2))
            for i in range(8)
        ]
        images = [render_visual(spec) for spec in specs]
        assert dhash128_many(images) == [dhash128(image) for image in images]

    def test_empty_batch(self):
        assert dhash128_many([]) == []

    def test_mixed_shapes_keep_input_order(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, size=(72, 128), dtype=np.uint8)
        b = rng.integers(0, 256, size=(31, 47), dtype=np.uint8)
        assert dhash128_many([a, b, a]) == [dhash128(a), dhash128(b), dhash128(a)]


# ---------------------------------------------------------------- hash memo


class TestHashMemo:
    def test_hit_miss_accounting(self):
        memo = HashMemo()
        assert memo.get(b"k1") is None
        memo.put(b"k1", 42)
        assert memo.get(b"k1") == 42
        assert memo.hits == 1
        assert memo.misses == 1

    def test_bounded_lru_eviction(self):
        memo = HashMemo(max_entries=2)
        memo.put(b"a", 1)
        memo.put(b"b", 2)
        assert memo.get(b"a") == 1  # refresh a; b is now LRU
        memo.put(b"c", 3)
        assert len(memo) == 2
        assert memo.get(b"b") is None
        assert memo.get(b"a") == 1
        assert memo.get(b"c") == 3


# --------------------------------------------------------- deferred recorder


class TestDeferredRecorder:
    def _image(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(72, 128), dtype=np.uint8)

    def test_placeholders_resolve_to_scalar_hashes(self):
        recorder = DeferredRecorder(HashMemo())
        images = [self._image(1), self._image(2), self._image(1)]
        slots = [recorder.screenshot_hash(image) for image in images]
        assert slots == [0, 1, 2]
        hashes, stats = recorder.resolve()
        assert hashes == [dhash128(image) for image in images]
        # The duplicate frame was deduplicated, not hashed twice.
        assert stats == {"screens": 3, "hashed": 2, "features_memoized": 0}

    def test_memo_carries_hashes_across_domains(self):
        memo = HashMemo()
        first = DeferredRecorder(memo)
        first.screenshot_hash(self._image(1))
        first.resolve()
        second = DeferredRecorder(memo)
        second.screenshot_hash(self._image(1))
        hashes, stats = second.resolve()
        assert hashes == [dhash128(self._image(1))]
        assert stats["hashed"] == 0  # served entirely from the memo


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
