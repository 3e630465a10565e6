"""Tests for the minimal PNG encoder and gallery export."""

import struct
import zlib

import numpy as np
import pytest

from repro.dom.page import VisualSpec
from repro.imaging.image import render_visual
from repro.imaging.png import encode_png, write_png


def png_size(data: bytes) -> tuple[int, int]:
    """(width, height) from a PNG's IHDR chunk."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    return struct.unpack(">II", data[16:24])


class TestEncodePng:
    def test_signature_and_chunks(self):
        data = encode_png(np.zeros((4, 6), dtype=np.uint8))
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        assert b"IHDR" in data and b"IDAT" in data and data.endswith(
            b"IEND" + (zlib.crc32(b"IEND") & 0xFFFFFFFF).to_bytes(4, "big")
        )

    def test_size_roundtrip(self):
        data = encode_png(np.zeros((72, 128), dtype=np.uint8))
        assert png_size(data) == (128, 72)

    def test_pixel_data_decompresses(self):
        image = np.arange(24, dtype=np.uint8).reshape(4, 6)
        data = encode_png(image)
        # Extract the IDAT payload and verify the raw scanlines.
        idat_at = data.index(b"IDAT")
        length = int.from_bytes(data[idat_at - 4 : idat_at], "big")
        payload = data[idat_at + 4 : idat_at + 4 + length]
        raw = zlib.decompress(payload)
        rows = [raw[i * 7 + 1 : i * 7 + 7] for i in range(4)]  # skip filter bytes
        assert b"".join(rows) == image.tobytes()

    def test_float_input_clipped(self):
        image = np.full((3, 3), 300.0)
        data = encode_png(image)
        assert png_size(data) == (3, 3)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            encode_png(np.zeros((3, 3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            encode_png(np.zeros((0, 5), dtype=np.uint8))

    def test_write_png(self, tmp_path):
        path = write_png(render_visual(VisualSpec("png/test")), tmp_path / "shot.png")
        assert path.exists()
        assert png_size(path.read_bytes()) == (128, 72)


class TestGalleryExport:
    def test_cluster_gallery(self, pipeline_run, tmp_path):
        from repro.analysis.export import export_screenshot_gallery

        world, _, result = pipeline_run
        written = export_screenshot_gallery(
            world.internet,
            world.vantages_residential[0],
            result.discovery,
            tmp_path / "gallery",
        )
        assert written
        # Every SE cluster with a surviving milkable URL gets a shot.
        assert len(written) >= len(result.discovery.seacma_campaigns) // 2
        for path in written:
            assert png_size(path.read_bytes()) == (128, 72)

    def test_gallery_reads_each_cluster_once(self, tmp_path, monkeypatch):
        from repro import SeacmaPipeline, WorldConfig, build_world
        from repro.analysis.export import export_screenshot_gallery

        world = build_world(WorldConfig.tiny(seed=7))
        result = SeacmaPipeline(world).run(with_milking=False)
        campaigns = result.discovery.campaigns
        assert campaigns
        store = campaigns[0].interactions.store
        scans = []
        real_scan = store.scan

        def counting_scan(*args, **kwargs):
            scans.append(args)
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(store, "scan", counting_scan)
        export_screenshot_gallery(
            world.internet,
            world.vantages_residential[0],
            result.discovery,
            tmp_path / "gallery",
        )
        assert len(scans) == len(campaigns)
