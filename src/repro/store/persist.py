"""Offline rehydration: rebuild a world and a result from a run store.

A finished (or interrupted) streaming run leaves everything needed to
re-analyse it in its :class:`~repro.store.base.RunStore`:

* :func:`load_world` rebuilds the simulated world the run measured —
  the stored :class:`~repro.ecosystem.world.WorldConfig` makes world
  construction deterministic, and advancing the fresh world's clock to
  the stored time replays the time-driven state (attack-domain rotations
  and the GSB listings they trigger) the run observed;
* :func:`load_result` reassembles the
  :class:`~repro.core.pipeline.PipelineResult` from the record streams,
  so reports and tables regenerate offline, without re-running a single
  crawl session.

``load_result(load_world(store), store)`` round-trips: the regenerated
reports are byte-identical to the ones the live run printed (covered by
``tests/test_streaming_pipeline.py``).
"""

from __future__ import annotations

from repro.core.pipeline import PipelineResult
from repro.ecosystem.world import World, build_world
from repro.errors import StoreError
from repro.feed.snapshot import FeedSnapshot
from repro.store.base import (
    ATTRIBUTION,
    CAMPAIGNS,
    FEED,
    MILKING,
    PROGRESS,
    RunStore,
)
from repro.store.records import (
    attribution_from_records,
    crawl_summary_from_meta,
    discovery_from_store,
    milking_from_records,
    pattern_from_record,
    world_config_from_meta,
)


def load_world(store: RunStore) -> World:
    """Rebuild the simulated world a stored run measured.

    The returned world's clock sits at the stored run's last recorded
    time (``finished_at`` for finished runs, the last crawl progress
    marker otherwise), and every campaign's throwaway-domain rotation —
    with the GSB listings each rotation triggers — has been replayed up
    to that time, so blacklist lookups against the rebuilt world answer
    exactly as they did during the run.
    """
    data = store.get_meta("world_config")
    if data is None:
        raise StoreError(
            f"store {store.run_id!r} has no world_config metadata; only "
            "stores written by `repro run --store-dir DIR` can be rehydrated"
        )
    world = build_world(world_config_from_meta(data))
    target = store.get_meta("finished_at")
    if target is None:
        target = 0.0
        for marker in store.scan(PROGRESS):
            target = marker["clock"]
    world.clock.advance_to(target)
    # Domain rotation is time-driven: asking each campaign for its active
    # domain catches up every intermediate rotation, firing the GSB hooks
    # with the same activation times the live run produced.
    for campaign in world.campaigns:
        campaign.active_attack_domain(world.clock.now())
    return world


def load_result(store: RunStore) -> PipelineResult:
    """Reassemble a stored run's :class:`PipelineResult`.

    Every field is read back from the store; nothing is recomputed, so
    the result reflects the run as it happened even if the analysis code
    has since changed.  Crawl records stay in the store: the dataset,
    the campaigns and the attribution groups are views that read their
    rows back on access.  ``fault_stats`` is not persisted and stays
    ``None``.  Works on interrupted runs too — fields whose stage never
    finished stay at their defaults.
    """
    result = PipelineResult()
    result.patterns = [
        pattern_from_record(record) for record in store.get_meta("patterns", [])
    ]
    result.publisher_domains = store.get_meta("publisher_domains", [])
    crawl_summary = store.get_meta("crawl_summary")
    if crawl_summary is not None:
        result.crawl = crawl_summary_from_meta(crawl_summary, store)
    discovery_stats = store.get_meta("discovery_stats")
    if discovery_stats is not None:
        result.discovery = discovery_from_store(
            discovery_stats, store.scan(CAMPAIGNS), store
        )
    if store.count(ATTRIBUTION) or store.get_meta("status") == "finished":
        result.attribution = attribution_from_records(store.scan(ATTRIBUTION), store)
    result.new_patterns = [
        pattern_from_record(record) for record in store.get_meta("new_patterns", [])
    ]
    result.expanded_publishers = store.get_meta("expanded_publishers", [])
    milking_rows = store.read(MILKING)
    if milking_rows:
        result.milking = milking_from_records(milking_rows)
    result.feed = [
        FeedSnapshot.from_record(record) for record in store.read(FEED)
    ]
    return result
