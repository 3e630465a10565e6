"""Synthetic screenshot rendering.

The paper's clustering operates on screenshots of SE attack landing pages.
Pages of one campaign look near-identical (same template, different domain
text / timestamps); pages of different campaigns look completely different.
:func:`render_visual` reproduces exactly that geometry: a deterministic
base image per ``template_key``, plus small ``variant``-seeded
perturbations standing in for the per-domain text differences.

Images are ``uint8`` numpy arrays of shape ``(height, width)`` (grayscale).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dom.page import VisualSpec
from repro.rng import derive

DEFAULT_HEIGHT = 72
DEFAULT_WIDTH = 128


def render_visual(
    spec: VisualSpec,
    height: int = DEFAULT_HEIGHT,
    width: int = DEFAULT_WIDTH,
) -> np.ndarray:
    """Render the screenshot for a page's visual spec.

    Deterministic in ``spec``.  Only the template's base image is
    cached: the crawl and milking hash a visual through
    :func:`repro.imaging.dhash.visual_dhash`, so only a hash-memo miss
    or an image export renders.  With ``noise_level <= 0`` the result is
    the cached base itself, which is read-only.
    """
    base = _template_image(spec.template_key, height, width)
    if spec.noise_level <= 0:
        return base
    return _perturb(base, spec, height, width)


@lru_cache(maxsize=512)
def _template_image(template_key: str, height: int, width: int) -> np.ndarray:
    """Deterministic, visually distinctive base image for a template.

    Memoized: one render costs about three times a variant's perturbation
    and many variants share a template.  Bounded, because the
    ``benign/customer/{host}`` keys grow with the world; 512 default-size
    images hold ~4.7 MB.  The cached array is read-only.
    """
    rng = np.random.default_rng(derive(0, "template", template_key))
    image = np.empty((height, width), dtype=np.float64)
    # Smooth background gradient: distinct direction/levels per template.
    rows = np.linspace(0.0, 1.0, height)[:, None]
    cols = np.linspace(0.0, 1.0, width)[None, :]
    a, b, offset = rng.uniform(-80, 80), rng.uniform(-80, 80), rng.uniform(60, 180)
    image[:, :] = offset + a * rows + b * cols
    # A handful of solid UI blocks (banners, buttons, dialog boxes).
    for _ in range(rng.integers(6, 12)):
        top = int(rng.integers(0, height - 4))
        left = int(rng.integers(0, width - 6))
        block_h = int(rng.integers(3, max(4, height // 3)))
        block_w = int(rng.integers(5, max(6, width // 2)))
        level = float(rng.uniform(0, 255))
        image[top : top + block_h, left : left + block_w] = level
    # A few thin separator lines.
    for _ in range(rng.integers(2, 5)):
        row = int(rng.integers(0, height))
        image[row, :] = float(rng.uniform(0, 255))
    base = np.clip(image, 0, 255).astype(np.uint8)
    base.setflags(write=False)
    return base


def _perturb(base: np.ndarray, spec: VisualSpec, height: int, width: int) -> np.ndarray:
    """Apply small variant-specific changes (domain text, timestamps)."""
    rng = np.random.default_rng(derive(0, "variant", spec.template_key, spec.variant))
    image = base.astype(np.float64).copy()
    # The "address bar / domain text" strip: a short row segment whose
    # pattern depends on the variant only.
    strip_row = int(rng.integers(0, max(1, height // 10)))
    strip_width = int(width * 0.3)
    strip = rng.uniform(0, 255, size=strip_width)
    image[strip_row, :strip_width] = strip
    # Low-amplitude noise over a few small patches (render jitter).
    amplitude = 255.0 * spec.noise_level
    for _ in range(3):
        top = int(rng.integers(0, height - 2))
        left = int(rng.integers(0, width - 2))
        patch_h = min(int(rng.integers(1, 4)), height - top)
        patch_w = min(int(rng.integers(2, 8)), width - left)
        noise = rng.uniform(-amplitude, amplitude, size=(patch_h, patch_w))
        image[top : top + patch_h, left : left + patch_w] += noise
    return np.clip(image, 0, 255).astype(np.uint8)


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Collapse an RGB image to grayscale; grayscale passes through."""
    if image.ndim == 2:
        return image
    if image.ndim == 3 and image.shape[2] in (3, 4):
        weights = np.array([0.299, 0.587, 0.114])
        gray = image[:, :, :3].astype(np.float64) @ weights
        return np.clip(gray, 0, 255).astype(np.uint8)
    raise ValueError(f"unsupported image shape {image.shape}")


def resize_area(image: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Area-average resize (the downscale step of perceptual hashing).

    Each output cell is the mean of an integer-bounded block of the input.
    Block sums of uint8-valued data are integers below 2**53, so they are
    exact in float64 no matter how they are accumulated — the result is
    bit-identical to averaging each block individually.
    """
    image = to_grayscale(image).astype(np.float64)
    in_height, in_width = image.shape
    row_edges = (np.arange(out_height + 1) * in_height) // out_height
    col_edges = (np.arange(out_width + 1) * in_width) // out_width
    # reduceat yields a[i] for an empty segment (indices[i] == indices[i+1]):
    # a bucket narrower than one pixel averages the pixel it starts on.
    row_sums = np.add.reduceat(image, row_edges[:-1], axis=0)
    cells = np.add.reduceat(row_sums, col_edges[:-1], axis=1)
    counts = (
        np.maximum(np.diff(row_edges), 1)[:, None]
        * np.maximum(np.diff(col_edges), 1)[None, :]
    )
    return cells / counts
