"""Tests for ground-truth evaluation of discovery and milking."""

from repro.analysis.evaluation import evaluate_discovery, evaluate_milking


class TestEvaluateDiscovery:
    def test_scores_real_run(self, pipeline_run):
        world, _, result = pipeline_run
        evaluation = evaluate_discovery(world, result.discovery)
        assert evaluation.true_campaigns == len(world.campaigns)
        assert 0 < evaluation.recovered_campaigns <= evaluation.true_campaigns
        assert 0.0 < evaluation.recall <= 1.0
        # Simulated discovery is clean: every SE cluster is a real campaign.
        assert evaluation.precision == 1.0
        assert evaluation.is_pure

    def test_missed_campaigns_listed(self, pipeline_run):
        world, _, result = pipeline_run
        evaluation = evaluate_discovery(world, result.discovery)
        assert len(evaluation.missed_campaign_keys) == (
            evaluation.true_campaigns - evaluation.recovered_campaigns
        )
        true_keys = {campaign.key for campaign in world.campaigns}
        assert set(evaluation.missed_campaign_keys) <= true_keys

    def test_empty_discovery(self, pipeline_run):
        from repro.core.discovery import DiscoveryResult

        world, _, _ = pipeline_run
        evaluation = evaluate_discovery(world, DiscoveryResult())
        assert evaluation.recall == 0.0
        assert evaluation.precision == 0.0
        assert evaluation.se_clusters == 0


    def test_one_member_scan_equals_per_cluster_reads(self, pipeline_run, monkeypatch):
        from repro.store.base import INTERACTIONS

        world, _, result = pipeline_run
        true_keys = {campaign.key for campaign in world.campaigns}
        # Each SE cluster's campaign keys, one store view per cluster.
        per_cluster = [
            {r.labels["campaign"] for r in cluster.interactions if r.labels.get("campaign")}
            for cluster in result.discovery.seacma_campaigns
        ]
        assert per_cluster
        store = result.discovery.campaigns[0].store
        real_scan = store.scan
        scans = []

        def counting_scan(stream, rows=None):
            scans.append(stream)
            return real_scan(stream, rows)

        monkeypatch.setattr(store, "scan", counting_scan)
        evaluation = evaluate_discovery(world, result.discovery)
        assert scans == [INTERACTIONS]
        recovered = set().union(*per_cluster) & true_keys
        assert evaluation.se_clusters == len(per_cluster)
        assert evaluation.recovered_campaigns == len(recovered)
        assert evaluation.correct_se_clusters == sum(
            1 for keys in per_cluster if keys & true_keys
        )
        assert evaluation.impure_clusters == sum(1 for keys in per_cluster if len(keys) > 1)
        assert evaluation.missed_campaign_keys == sorted(true_keys - recovered)


class TestEvaluateMilking:
    def test_coverage_of_tracked_campaigns(self, pipeline_run):
        world, _, result = pipeline_run
        evaluation = evaluate_milking(world, result.milking)
        assert evaluation.milked_domains == len(result.milking.domains)
        assert evaluation.true_domains_in_window > 0
        # 15-minute rounds catch nearly every rotation (lifetimes are
        # hours), so coverage should be near-total.
        assert evaluation.coverage > 0.8
        # And milking never invents domains.
        assert evaluation.false_domains == 0
