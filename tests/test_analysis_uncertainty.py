"""Tests for Wilson intervals and the annotated Table 3."""

import pytest

from repro.analysis.uncertainty import (
    table3_with_intervals,
    wilson_interval,
    z_value,
)

#: Values computed with ``scipy.stats.norm.ppf`` before the stdlib
#: ``statistics.NormalDist`` replaced it: confidence -> (z, Wilson
#: bounds of 8/10).
SCIPY_ERA = {
    0.8: (1.2815515655446004, 0.6015960115342782, 0.9137627792113974),
    0.9: (1.6448536269514722, 0.540792805687488, 0.931442012262468),
    0.95: (1.959963984540054, 0.4901624715366418, 0.9433178485456248),
    0.99: (2.5758293035489004, 0.4008186965216716, 0.9598688474953836),
}


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        interval = wilson_interval(30, 100)
        assert interval.low < interval.point < interval.high
        assert interval.point == pytest.approx(0.3)

    def test_bounds_within_unit_interval(self):
        for successes, trials in ((0, 10), (10, 10), (1, 2), (500, 1000)):
            interval = wilson_interval(successes, trials)
            assert 0.0 <= interval.low <= interval.high <= 1.0

    def test_zero_trials(self):
        interval = wilson_interval(0, 0)
        assert interval.low == 0.0 and interval.high == 1.0

    def test_more_trials_tighter_interval(self):
        wide = wilson_interval(3, 10)
        narrow = wilson_interval(300, 1000)
        assert (narrow.high - narrow.low) < (wide.high - wide.low)

    def test_higher_confidence_wider_interval(self):
        low_conf = wilson_interval(30, 100, confidence=0.8)
        high_conf = wilson_interval(30, 100, confidence=0.99)
        assert (high_conf.high - high_conf.low) > (low_conf.high - low_conf.low)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    def test_known_value(self):
        # Classic check: 8/10 at 95% -> roughly [0.49, 0.94].
        interval = wilson_interval(8, 10)
        assert interval.low == pytest.approx(0.49, abs=0.02)
        assert interval.high == pytest.approx(0.94, abs=0.02)

    @pytest.mark.parametrize("confidence", sorted(SCIPY_ERA))
    def test_matches_scipy_era_values(self, confidence):
        z, low, high = SCIPY_ERA[confidence]
        assert z_value(confidence) == pytest.approx(z, abs=1e-12, rel=0)
        interval = wilson_interval(8, 10, confidence)
        assert interval.low == pytest.approx(low, abs=1e-12, rel=0)
        assert interval.high == pytest.approx(high, abs=1e-12, rel=0)


class TestTable3Annotation:
    def test_annotated_rows(self, pipeline_run):
        from repro.core.reports import table3

        world, _, result = pipeline_run
        rows = table3(result.attribution, result.discovery, world.networks)
        annotated = table3_with_intervals(rows)
        assert len(annotated) == len(rows)
        for row in annotated:
            assert 0.0 <= row.se_pct_low <= row.se_pct_high <= 100.0
            if row.landing_pages:
                assert row.se_pct_low <= row.se_pct <= row.se_pct_high

    def test_paper_headline_separable_at_scale(self, pipeline_run):
        """PopCash vs HilltopAds: the Table 3 extremes must be
        statistically distinguishable even at test scale, if volumes
        are large enough."""
        from repro.core.reports import table3

        world, _, result = pipeline_run
        rows = {row.network: row for row in table3(result.attribution, result.discovery, world.networks)}
        popcash = rows.get("PopCash")
        hilltop = rows.get("HilltopAds")
        if popcash and hilltop and min(popcash.landing_pages, hilltop.landing_pages) >= 30:
            # Non-overlapping Wilson intervals (conservative).
            high = wilson_interval(popcash.se_attack_pages, popcash.landing_pages)
            low = wilson_interval(hilltop.se_attack_pages, hilltop.landing_pages)
            assert low.high < high.low
