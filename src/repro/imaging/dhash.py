"""128-bit difference hash (dhash).

The paper computes "a 128 bit difference hash" per screenshot.  The
standard construction: downscale to a ``rows x (cols+1)`` grayscale grid
and emit one bit per horizontal neighbour comparison.  With 8 rows and 17
columns that yields exactly 8 x 16 = 128 bits.

Hashes are returned as Python ints (fast XOR + popcount for Hamming
distance).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.imaging.image import area_means, resize_area, to_grayscale

DHASH_ROWS = 8
DHASH_COLS = 16
DHASH_BITS = DHASH_ROWS * DHASH_COLS  # 128


def dhash128(image: np.ndarray) -> int:
    """Compute the 128-bit difference hash of ``image``.

    >>> import numpy as np
    >>> flat = np.zeros((72, 128), dtype=np.uint8)
    >>> dhash128(flat)
    0
    """
    grid = resize_area(image, DHASH_ROWS, DHASH_COLS + 1)
    bits = grid[:, 1:] > grid[:, :-1]
    value = 0
    for bit in bits.ravel():
        value = (value << 1) | int(bit)
    return value


def dhash128_many(images: Sequence[np.ndarray]) -> list[int]:
    """Compute :func:`dhash128` for a batch of images in one pass.

    Images are grouped by shape and each group is downscaled as a single
    stacked array operation.  Block sums of uint8 pixels are exact in
    float64, so the stacked means — and therefore every comparison bit —
    are bit-identical to hashing each image on its own.
    """
    results = [0] * len(images)
    groups: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
    for index, image in enumerate(images):
        gray = to_grayscale(image)
        groups.setdefault(gray.shape, []).append((index, gray))
    for members in groups.values():
        stack = np.stack([gray for _, gray in members]).astype(np.float64)
        grids = area_means(stack, DHASH_ROWS, DHASH_COLS + 1)
        bits = grids[:, :, 1:] > grids[:, :, :-1]
        packed = np.packbits(bits.reshape(len(members), DHASH_BITS), axis=1)
        for (index, _), row in zip(members, packed):
            results[index] = int.from_bytes(row.tobytes(), "big")
    return results


def dhash_bytes(hash_value: int) -> bytes:
    """The hash as 16 big-endian bytes (for storage / display)."""
    return hash_value.to_bytes(DHASH_BITS // 8, "big")


def dhash_hex(hash_value: int) -> str:
    """The hash as a 32-character hex string."""
    return f"{hash_value:032x}"
