"""Tests for the automated parked-domain detector (§4.3 future work)."""

from repro.analysis.parking import ParkedPageDetector, autotriage_clusters
from repro.core.crawler import PageFeatures


def features(n_scripts=0, n_images=0, n_anchors=0, n_offsite=0, title=""):
    return PageFeatures(
        n_scripts=n_scripts,
        n_images=n_images,
        n_anchors=n_anchors,
        n_offsite_anchors=n_offsite,
        title=title,
    )


class TestDetector:
    def setup_method(self):
        self.detector = ParkedPageDetector()

    def test_for_sale_title_fires(self):
        verdict = self.detector.classify(features(title="mydomain.com — domain is for sale"))
        assert verdict.parked
        assert "for-sale-title" in verdict.reasons

    def test_scriptless_link_farm_fires(self):
        verdict = self.detector.classify(
            features(n_anchors=6, n_offsite=6, n_scripts=0, n_images=0)
        )
        assert verdict.parked
        assert "scriptless-link-farm" in verdict.reasons

    def test_advertiser_page_does_not_fire(self):
        # Analytics script + imagery, no link farm.
        verdict = self.detector.classify(
            features(n_scripts=1, n_images=2, title="Welcome to brand.com")
        )
        assert not verdict.parked

    def test_stock_gallery_does_not_fire(self):
        verdict = self.detector.classify(
            features(n_scripts=0, n_images=4, title="Exclusive gallery — enter now")
        )
        assert not verdict.parked

    def test_attack_page_does_not_fire(self):
        verdict = self.detector.classify(
            features(n_scripts=1, n_images=1, title="Update Required — Flash Player")
        )
        assert not verdict.parked

    def test_link_farm_with_images_does_not_fire(self):
        verdict = self.detector.classify(
            features(n_anchors=6, n_offsite=6, n_images=3)
        )
        assert not verdict.parked


class TestOnRealCrawl:
    def test_detector_agrees_with_ground_truth(self, pipeline_run):
        _, _, result = pipeline_run
        detector = ParkedPageDetector()
        hits = misses = false_positives = 0
        for record in result.crawl.interactions:
            if record.load_failed:
                continue
            verdict = detector.classify(record.page_features)
            truly_parked = record.labels.get("kind") == "parked"
            if truly_parked and verdict.parked:
                hits += 1
            elif truly_parked:
                misses += 1
            elif verdict.parked:
                false_positives += 1
        assert hits > 0
        assert misses == 0
        assert false_positives == 0

    def test_autotriage_relabels_parked_clusters(self, fresh_world):
        from repro import SeacmaPipeline

        pipeline = SeacmaPipeline(fresh_world)
        result = pipeline.run(with_milking=False)
        parked_before = [
            cluster for cluster in result.discovery.campaigns
            if cluster.label == "parked"
        ]
        relabelled = autotriage_clusters(result.discovery)
        # Every ground-truth parked cluster is auto-triaged...
        for cluster in parked_before:
            assert relabelled.get(cluster.cluster_id) == "parked-auto"
            assert cluster.label == "parked-auto"
        # ...and no SE cluster is falsely filtered.
        assert all(
            cluster.label != "parked-auto"
            for cluster in result.discovery.campaigns
            if cluster.interactions
            and cluster.interactions[0].labels.get("kind") == "se-attack"
        )

    def test_autotriage_reads_members_in_one_scan(self, fresh_world, monkeypatch):
        from repro import SeacmaPipeline
        from repro.store.base import INTERACTIONS

        result = SeacmaPipeline(fresh_world).run(with_milking=False)
        clusters = result.discovery.campaigns
        # The per-cluster verdict, one store view per cluster.
        expected = {}
        for cluster in clusters:
            loaded = [r for r in cluster.interactions if not r.load_failed]
            parked = sum(
                ParkedPageDetector().classify(r.page_features).parked for r in loaded
            )
            if loaded and parked / len(loaded) >= 0.6:
                expected[cluster.cluster_id] = "parked-auto"
        assert expected
        store = clusters[0].store
        real_scan = store.scan
        scans = []

        def counting_scan(stream, rows=None):
            scans.append(stream)
            return real_scan(stream, rows)

        monkeypatch.setattr(store, "scan", counting_scan)
        assert autotriage_clusters(result.discovery) == expected
        assert scans == [INTERACTIONS]
