"""Tests for the markdown report generator."""

import hashlib

import pytest

from repro.analysis.reportgen import generate_report
from repro.core.pipeline import PipelineResult

#: SHA-256 of the Table 3 Wilson-interval section rendered for the
#: shared tiny run (seed 7), recorded while the z-value still came from
#: ``scipy.stats.norm.ppf``.
TABLE3_CI_SHA256 = "e3212d59191e1dc09127524798d41ee291895980637ed95751669a70441c3fc1"


class TestGenerateReport:
    def test_full_report_structure(self, pipeline_run):
        world, _, result = pipeline_run
        report = generate_report(world, result)
        assert report.startswith("# SEACMA measurement report")
        for heading in (
            "Table 1 — campaigns per category",
            "Table 2 — publisher categories",
            "Table 3 — ad networks",
            "Table 4 — milking vs GSB",
        ):
            assert heading in report
        assert "Defense feed:" in report
        assert "Ethics:" in report
        assert "Fake Software" in report

    def test_markdown_tables_well_formed(self, pipeline_run):
        world, _, result = pipeline_run
        report = generate_report(world, result)
        table_lines = [line for line in report.splitlines() if line.startswith("|")]
        assert table_lines
        # Every table row has a consistent pipe structure.
        for line in table_lines:
            assert line.endswith("|")
            assert line.count("|") >= 3

    def test_report_without_milking(self, pipeline_run):
        world, _, result = pipeline_run
        partial = PipelineResult(
            patterns=result.patterns,
            publisher_domains=result.publisher_domains,
            crawl=result.crawl,
            discovery=result.discovery,
            attribution=result.attribution,
        )
        report = generate_report(world, partial)
        assert "Table 4" not in report
        assert "Table 1" in report

    def test_incomplete_result_rejected(self, pipeline_run):
        world, _, _ = pipeline_run
        with pytest.raises(ValueError):
            generate_report(world, PipelineResult())

    def test_new_network_section(self, pipeline_run):
        world, _, result = pipeline_run
        report = generate_report(world, result)
        if result.new_patterns:
            assert "new" in report and "networks" in report

    def test_table3_intervals_unchanged(self, pipeline_run):
        world, _, result = pipeline_run
        report = generate_report(world, result)
        start = report.index("### Table 3 with 95% Wilson intervals")
        end = report.index("\n\n", report.index("\n\n", start) + 2)
        section = report[start:end]
        assert hashlib.sha256(section.encode()).hexdigest() == TABLE3_CI_SHA256, section
