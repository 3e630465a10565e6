"""128-bit difference hash (dhash).

The paper computes "a 128 bit difference hash" per screenshot.  The
standard construction: downscale to a ``rows x (cols+1)`` grayscale grid
and emit one bit per horizontal neighbour comparison.  With 8 rows and 17
columns that yields exactly 8 x 16 = 128 bits.

Hashes are returned as Python ints (fast XOR + popcount for Hamming
distance).  A screenshot is a pure function of its page's
:class:`~repro.dom.page.VisualSpec`, so :func:`visual_dhash` hashes each
visual once and every later capture of it is a cache hit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dom.page import VisualSpec
from repro.imaging.image import render_visual, resize_area

DHASH_ROWS = 8
DHASH_COLS = 16
DHASH_BITS = DHASH_ROWS * DHASH_COLS  # 128


def dhash128(image: np.ndarray) -> int:
    """Compute the 128-bit difference hash of ``image``.

    Bits run row by row, most significant first.

    >>> import numpy as np
    >>> flat = np.zeros((72, 128), dtype=np.uint8)
    >>> dhash128(flat)
    0
    """
    grid = resize_area(image, DHASH_ROWS, DHASH_COLS + 1)
    bits = np.packbits(grid[:, 1:] > grid[:, :-1])
    return int.from_bytes(bits.tobytes(), "big")


@lru_cache(maxsize=16384)
def visual_dhash(spec: VisualSpec) -> int:
    """The dhash of ``spec``'s rendered screenshot, computed once per visual.

    Campaign templates repeat across thousands of landing pages and
    milking revisits the same pages every round, so nearly every capture
    is a hit.  Bounded so a 93k-publisher run cannot grow it without
    limit.
    """
    return dhash128(render_visual(spec))


def dhash_hex(hash_value: int) -> str:
    """The hash as a 32-character hex string."""
    return f"{hash_value:032x}"
