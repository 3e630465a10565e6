"""Hygiene guard for committed benchmark results.

Every ``benchmarks/results/BENCH_*.json`` is a committed artifact that
readers (and CI dashboards) treat as reproducible: its ``benchmark``
field names the ``benchmarks/bench_<name>.py`` script that wrote it.
This suite fails when a result file references a script that no longer
exists — the drift that silently turns committed numbers into folklore
— and checks the worldscale result records a per-publisher figure for
every rung and a completed 93k rung.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).parent.parent / "benchmarks"
RESULTS = sorted((BENCHMARKS_DIR / "results").glob("BENCH_*.json"))


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


class TestCommittedResults:
    def test_results_are_committed(self):
        assert RESULTS, "no committed BENCH_*.json results found"

    @pytest.mark.parametrize("path", RESULTS, ids=lambda p: p.stem)
    def test_result_names_an_existing_bench_script(self, path):
        payload = _load(path)
        name = payload.get("benchmark")
        assert isinstance(name, str) and name, (
            f"{path.name} has no 'benchmark' field naming its script"
        )
        script = BENCHMARKS_DIR / f"bench_{name}.py"
        assert script.exists(), (
            f"{path.name} references benchmarks/bench_{name}.py, "
            "which does not exist — regenerate or remove the result"
        )


class TestWorldscaleProvenance:
    @pytest.fixture(scope="class")
    def payload(self):
        path = BENCHMARKS_DIR / "results" / "BENCH_worldscale.json"
        assert path.exists(), "worldscale result not committed"
        return _load(path)

    def test_every_run_records_ms_per_publisher(self, payload):
        assert payload["runs"], "worldscale result has no runs"
        for run in payload["runs"]:
            assert run["ms_per_publisher"] > 0, run

    def test_93k_rung_completed(self, payload):
        largest = payload["runs"][-1]
        assert largest["population"] >= 93_000
        assert largest["sessions"] > 0
