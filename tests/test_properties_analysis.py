"""Property-based tests for the analysis layer's aggregate invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.feeds import build_domain_feed
from repro.analysis.stats import campaign_timelines, churn_summary
from repro.analysis.uncertainty import wilson_interval
from repro.core.milking import MilkedDomain, MilkingReport

DAY = 86400.0

domain_name = st.text(alphabet=string.ascii_lowercase, min_size=4, max_size=10).map(
    lambda stem: f"{stem}.club"
)


@st.composite
def milking_reports(draw):
    span_days = draw(st.floats(min_value=1.0, max_value=10.0))
    report = MilkingReport(started_at=0.0, finished_at=span_days * DAY)
    count = draw(st.integers(min_value=0, max_value=25))
    names = draw(
        st.lists(domain_name, min_size=count, max_size=count, unique=True)
    )
    for name in names:
        report.domains.append(
            MilkedDomain(
                domain=name,
                cluster_id=draw(st.integers(min_value=1, max_value=4)),
                category=None,
                discovered_at=draw(
                    st.floats(min_value=0.0, max_value=span_days * DAY)
                ),
                listed_at_discovery=draw(st.booleans()),
            )
        )
    return report


class TestStatsProperties:
    @given(report=milking_reports())
    @settings(max_examples=50, deadline=None)
    def test_timelines_partition(self, report):
        timelines = campaign_timelines(report)
        assert sum(t.domain_count for t in timelines.values()) == len(report.domains)
        for timeline in timelines.values():
            assert timeline.discovery_times == sorted(timeline.discovery_times)

    @given(report=milking_reports())
    @settings(max_examples=50, deadline=None)
    def test_churn_summary_consistent(self, report):
        summary = churn_summary(report)
        assert summary.total_domains == len(report.domains)
        if summary.median_rotation_hours is not None:
            assert (
                summary.fastest_rotation_hours
                <= summary.median_rotation_hours
                <= summary.slowest_rotation_hours
            )


class TestFeedProperties:
    @given(report=milking_reports())
    @settings(max_examples=50, deadline=None)
    def test_domain_feed_ordered_and_complete(self, report):
        feed = build_domain_feed(report)
        assert len(feed) == len({d.domain for d in report.domains})
        times = [entry.first_seen for entry in feed]
        assert times == sorted(times)


class TestWilsonProperties:
    @given(
        successes=st.integers(min_value=0, max_value=200),
        extra=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_interval_always_valid(self, successes, extra):
        trials = successes + extra
        interval = wilson_interval(successes, trials)
        assert 0.0 <= interval.low <= interval.high <= 1.0
        if trials:
            assert interval.low <= successes / trials <= interval.high
