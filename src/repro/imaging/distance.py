"""Hamming distances between perceptual hashes."""

from __future__ import annotations


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two hashes."""
    return (a ^ b).bit_count()
