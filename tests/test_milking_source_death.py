"""Milking resilience: upstream (TDS) hosts can die mid-experiment."""

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.core.milking import MilkingConfig, MilkingTracker


class TestSourceDeath:
    def test_dead_tds_source_retired_others_continue(self):
        world = build_world(WorldConfig.tiny(seed=21))
        pipeline = SeacmaPipeline(world)
        result = pipeline.run(with_milking=False)
        tracker = MilkingTracker(
            world.internet, world.gsb, world.virustotal, world.vantages_residential[0]
        )
        sources = tracker.derive_sources(result.discovery)
        assert len(sources) >= 2

        # Take one campaign's TDS off the air before milking starts.
        victim = sources[0]
        victim_host = victim.url.split("/")[2]
        del world.internet.dns._static[victim_host]

        report = tracker.run(
            MilkingConfig(duration_days=1.0, post_lookup_days=0.5,
                          final_lookup_extra_days=1.0, vt_rescan_days=1.0)
        )

        dead = [s for s in tracker.sources if s.url.startswith(f"http://{victim_host}")]
        alive = [s for s in tracker.sources if not s.url.startswith(f"http://{victim_host}")]
        # The dead upstream's sources get retired after repeated failures...
        assert dead and all(not source.active for source in dead)
        assert all(source.failures >= 20 or not source.active for source in dead)
        # ...while every other source keeps milking to the end.
        assert alive and any(source.active for source in alive)
        assert report.domains, "surviving sources still harvest domains"
        # And no domain is attributed to the dead campaign's cluster
        # after its upstream vanished (it can't be milked).
        dead_clusters = {source.cluster_id for source in dead}
        live_domains = [
            record for record in report.domains if record.cluster_id not in dead_clusters
        ]
        assert live_domains
