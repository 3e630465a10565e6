"""Imaging: synthetic screenshot rendering and perceptual hashing."""

from repro.imaging.image import render_visual, resize_area, to_grayscale
from repro.imaging.dhash import DHASH_BITS, dhash128
from repro.imaging.distance import hamming

__all__ = [
    "render_visual",
    "resize_area",
    "to_grayscale",
    "DHASH_BITS",
    "dhash128",
    "hamming",
]
