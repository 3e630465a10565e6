"""Minimal PNG encoding for screenshot export.

The paper releases the screenshots of every collected SE attack; this
module lets the pipeline do the same without an imaging dependency.
Only what we need: 8-bit grayscale, no interlacing, zlib-compressed
scanlines with filter type 0.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode_png(image: np.ndarray) -> bytes:
    """Encode a 2-D ``uint8`` array as a grayscale PNG byte string.

    >>> import numpy as np
    >>> data = encode_png(np.zeros((4, 4), dtype=np.uint8))
    >>> data[:8] == b"\\x89PNG\\r\\n\\x1a\\n"
    True
    """
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale array, got shape {image.shape}")
    if image.dtype != np.uint8:
        image = np.clip(image, 0, 255).astype(np.uint8)
    height, width = image.shape
    if height == 0 or width == 0:
        raise ValueError("image must be non-empty")
    header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    # Each scanline is prefixed with filter byte 0 (None).
    raw = b"".join(b"\x00" + image[row].tobytes() for row in range(height))
    return (
        _SIGNATURE
        + _chunk(b"IHDR", header)
        + _chunk(b"IDAT", zlib.compress(raw, level=6))
        + _chunk(b"IEND", b"")
    )


def write_png(image: np.ndarray, path: str | Path) -> Path:
    """Encode ``image`` and write it to ``path``; returns the path."""
    path = Path(path)
    path.write_bytes(encode_png(image))
    return path
