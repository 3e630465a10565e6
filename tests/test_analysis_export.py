"""Tests for dataset export/import round-trips."""

import json

import pytest

from repro.analysis.export import (
    export_crawl_dataset,
    export_milking_report,
    import_crawl_dataset,
    interaction_to_dict,
)


class TestCrawlExport:
    def test_roundtrip(self, pipeline_run):
        _, _, result = pipeline_run
        sample = result.crawl.interactions[:25]
        document = export_crawl_dataset(sample)
        restored = import_crawl_dataset(document)
        assert len(restored) == len(sample)
        for original, copy in zip(sample, restored):
            assert copy.landing_url == original.landing_url
            assert copy.screenshot_hash == original.screenshot_hash
            assert copy.chain == original.chain
            assert copy.page_features == original.page_features
            assert copy.labels == original.labels

    def test_json_structure(self, pipeline_run):
        _, _, result = pipeline_run
        document = export_crawl_dataset(result.crawl.interactions[:2])
        data = json.loads(document)
        assert data["format"] == "seacma-crawl/1"
        record = data["interactions"][0]
        assert len(record["screenshot_hash"]) == 32  # hex dhash

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_streamed_document_is_the_one_shot_dump(self, pipeline_run, count):
        # `run --out` streams the store through write_crawl_dataset; the
        # bytes must be those of one json.dumps over every record.
        _, _, result = pipeline_run
        sample = result.crawl.interactions[:count]
        one_shot = json.dumps(
            {
                "format": "seacma-crawl/1",
                "interactions": [interaction_to_dict(r) for r in sample],
            },
            indent=1,
        )
        assert export_crawl_dataset(sample) == one_shot

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            import_crawl_dataset('{"format": "other/9", "interactions": []}')

    def test_empty_dataset(self):
        assert import_crawl_dataset(export_crawl_dataset([])) == []


class TestMilkingExport:

    def test_report_fields_present(self, pipeline_run):
        _, _, result = pipeline_run
        data = json.loads(export_milking_report(result.milking))
        assert data["format"] == "seacma-milking/1"
        assert data["sessions"] == result.milking.sessions
        assert len(data["files"]) == len(result.milking.files)
        assert data["phones"] == sorted(result.milking.phones)
        if data["files"]:
            assert "final_detections" in data["files"][0]
