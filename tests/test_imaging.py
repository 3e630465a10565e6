"""Tests for screenshot rendering, dhash and similarity matching."""

import numpy as np
import pytest

from repro.dom.page import VisualSpec
from repro.imaging.dhash import DHASH_BITS, dhash128, dhash_hex
from repro.imaging.distance import hamming
from repro.imaging.image import render_visual, resize_area, to_grayscale
from repro.imaging.similarity import matches_any


class TestRenderVisual:
    def test_deterministic(self):
        spec = VisualSpec("attack/x", variant=3)
        assert np.array_equal(render_visual(spec), render_visual(spec))

    def test_shape_and_dtype(self):
        image = render_visual(VisualSpec("attack/x"))
        assert image.shape == (72, 128)
        assert image.dtype == np.uint8

    def test_templates_differ_strongly(self):
        a = render_visual(VisualSpec("attack/a"))
        b = render_visual(VisualSpec("attack/b"))
        assert hamming(dhash128(a), dhash128(b)) > 20

    def test_variants_differ_weakly(self):
        a = render_visual(VisualSpec("attack/a", variant=1))
        b = render_visual(VisualSpec("attack/a", variant=2))
        distance = hamming(dhash128(a), dhash128(b))
        assert 0 <= distance <= 12  # within the clustering eps

    def test_zero_noise_is_pure_template(self):
        a = render_visual(VisualSpec("attack/a", variant=1, noise_level=0.0))
        b = render_visual(VisualSpec("attack/a", variant=2, noise_level=0.0))
        assert np.array_equal(a, b)


class TestResizeAndGrayscale:
    def test_resize_constant_image(self):
        image = np.full((72, 128), 77, dtype=np.uint8)
        out = resize_area(image, 8, 17)
        assert out.shape == (8, 17)
        assert np.allclose(out, 77.0)

    def test_resize_preserves_mean(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(72, 128)).astype(np.uint8)
        out = resize_area(image, 8, 16)
        assert abs(out.mean() - image.mean()) < 2.0

    def test_grayscale_from_rgb(self):
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        rgb[:, :, 1] = 255  # pure green
        gray = to_grayscale(rgb)
        assert gray.shape == (4, 4)
        assert 140 < gray[0, 0] < 160  # 0.587 * 255

    def test_grayscale_passthrough(self):
        gray = np.zeros((4, 4), dtype=np.uint8)
        assert to_grayscale(gray) is gray

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            to_grayscale(np.zeros((4, 4, 7)))


class TestDhash:
    def test_128_bits(self):
        assert DHASH_BITS == 128
        value = dhash128(render_visual(VisualSpec("attack/a")))
        assert 0 <= value < 2**128

    def test_flat_image_hashes_to_zero(self):
        assert dhash128(np.zeros((72, 128), dtype=np.uint8)) == 0

    def test_gradient_hashes_to_all_ones(self):
        image = np.tile(np.arange(128, dtype=np.uint8), (72, 1))
        assert dhash128(image) == 2**128 - 1

    def test_insensitive_to_brightness_shift(self):
        base = render_visual(VisualSpec("attack/a"))
        brighter = np.clip(base.astype(int) + 10, 0, 255).astype(np.uint8)
        assert hamming(dhash128(base), dhash128(brighter)) <= 6

    def test_insensitive_to_scale(self):
        spec = VisualSpec("attack/a")
        small = render_visual(spec, height=72, width=128)
        large = render_visual(spec, height=144, width=256)
        # Not identical renders, but hashes of rescaled content stay close.
        assert hamming(dhash128(small), dhash128(large)) <= 16

    def test_hex_and_bytes(self):
        value = dhash128(render_visual(VisualSpec("attack/a")))
        assert len(dhash_hex(value)) == 32
        assert int(dhash_hex(value), 16) == value


class TestDistance:
    def test_hamming_basics(self):
        assert hamming(0, 0) == 0
        assert hamming(0b1010, 0b0101) == 4
        assert hamming(2**127, 0) == 1

    def test_symmetry(self):
        a, b = 0xDEADBEEF, 0xCAFEBABE
        assert hamming(a, b) == hamming(b, a)


class TestSimilarity:

    def test_matches_any(self):
        known = {dhash128(render_visual(VisualSpec("attack/a", variant=v))) for v in range(3)}
        probe = dhash128(render_visual(VisualSpec("attack/a", variant=9)))
        assert matches_any(probe, known)
        stranger = dhash128(render_visual(VisualSpec("attack/z")))
        assert not matches_any(stranger, known)
