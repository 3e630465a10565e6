"""End-to-end SEACMA pipeline (Figure 2).

``SeacmaPipeline`` wires the stages in the paper's order:

①  seed ad networks → invariant patterns
②  PublicWWW reversal → publisher site list
③  crawler farm → ad interactions
④⑤ screenshot clustering → SEACMA campaigns (+ benign-cluster census)
⑥  milkable-URL extraction → milking tracker → GSB/VT tracking
⑦  ad attribution → per-network stats, new-network discovery, seed
    expansion

Each stage is also callable on its own, so experiments (and tests) can
run any prefix of the pipeline.

A full run is one streaming loop: :meth:`SeacmaPipeline.run_streaming`
starts a :class:`StreamingRun` that feeds every finished crawl batch
into the incremental stages *while the crawl is still going*,
persisting each record into a :class:`~repro.store.base.RunStore` as it
is produced.  :meth:`SeacmaPipeline.run` is the same loop over a fresh
:class:`~repro.store.memory.MemoryStore`.  The incremental stages are
schedule-invariant, so results match the one-shot batch functions
(``discover_campaigns``, ``attribute_interactions``) whatever the
``batch_domains`` grouping (``tests/test_streaming_pipeline.py``).  A
run whose process died mid-crawl is continued by
:meth:`SeacmaPipeline.resume_streaming` over the surviving store.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterator

from repro.browser.useragent import PROFILES
from repro.chaos.points import crash_point
from repro.core.attribution import (
    AttributionResult,
    IncrementalAttribution,
    attribute_interactions,
    discover_new_networks,
    expand_publisher_list,
)
from repro.core.discovery import (
    DiscoveryResult,
    IncrementalDiscovery,
    discover_campaigns,
)
from repro.core.farm import (
    CrawlBatch,
    CrawlDataset,
    CrawlerFarm,
    FarmConfig,
)
from repro.core.milking import MilkingConfig, MilkingReport, MilkingTracker
from repro.core.rows import StoredInteractions
from repro.core.seeds import (
    InvariantPattern,
    derive_invariant_patterns,
    merged_publisher_list,
    reverse_to_publishers,
)
from repro.core.stages import StoreWriter, ingest_all
from repro.ecosystem.world import World
from repro.errors import ConfigError, StoreError
from repro.faults.retry import RetryPolicy, ensure_resilience
from repro.faults.stats import FaultStats
from repro.feed.publisher import FeedPublisher, network_of_clusters
from repro.feed.snapshot import FeedSnapshot
from repro.store.base import (
    ATTRIBUTION,
    CAMPAIGNS,
    FEED,
    HASHES,
    INTERACTIONS,
    MILKING,
    PROGRESS,
    RunStore,
)
from repro.store.memory import MemoryStore
from repro.store.records import (
    attribution_to_records,
    campaign_to_record,
    crawl_summary_to_meta,
    discovery_stats_to_meta,
    milking_to_records,
    pattern_to_record,
    progress_to_record,
    world_config_to_meta,
)
from repro.telemetry import SHARD_LANE, current as current_telemetry

logger = logging.getLogger(__name__)

#: Stored interactions decoded per ingest while a resumed run replays
#: its store (any size gives the same stage results).
_REPLAY_CHUNK = 512


def record_world_stats(world: World) -> None:
    """Ship the world's page-materialization counters to telemetry.

    The distinct-publisher count is worker-invariant: the set of pages a
    run derives is a property of the crawl, not of which process ran it,
    and the sharded executor unions each worker's distinct set back into
    the parent's stats at merge time — so it is safe as a canonical
    gauge.  Cache hits, misses and evictions depend on which process
    served which page, so they ride an operational shard-lane span and
    stay out of the byte-compared metrics registry.
    """
    telemetry = current_telemetry()
    stats = world.publisher_directory.stats
    telemetry.set_gauge("world.materialized_publishers", stats.distinct_count)
    if telemetry.enabled:
        now = world.clock.now()
        telemetry.complete_span(
            "world.materialize",
            sim_start=now,
            sim_end=now,
            attrs=stats.as_dict(),
            lane=SHARD_LANE,
        )


@dataclass
class PipelineResult:
    """Everything one full pipeline run produced."""

    patterns: list[InvariantPattern] = field(default_factory=list)
    publisher_domains: list[str] = field(default_factory=list)
    crawl: CrawlDataset | None = None
    discovery: DiscoveryResult | None = None
    attribution: AttributionResult | None = None
    new_patterns: list[InvariantPattern] = field(default_factory=list)
    expanded_publishers: list[str] = field(default_factory=list)
    milking: MilkingReport | None = None
    #: Versioned blocklist snapshots the milking run published (empty when
    #: milking was skipped or discovered nothing).
    feed: list[FeedSnapshot] = field(default_factory=list)
    #: Injected-fault and recovery counters (None when the world has no
    #: fault plan and no retry machinery was requested).
    fault_stats: FaultStats | None = None


class SeacmaPipeline:
    """The paper's measurement system, against a simulated world."""

    def __init__(
        self,
        world: World,
        farm_config: FarmConfig | None = None,
        milking_config: MilkingConfig | None = None,
        eps: float = 0.1,
        min_pts: int = 3,
        theta_c: int = 5,
        retries_enabled: bool = True,
        retry_policy: RetryPolicy | None = None,
        feed_interval_minutes: float = 60.0,
    ) -> None:
        self.world = world
        self.farm_config = farm_config if farm_config is not None else FarmConfig()
        self.milking_config = (
            milking_config if milking_config is not None else MilkingConfig()
        )
        self.eps = eps
        self.min_pts = min_pts
        self.theta_c = theta_c
        self.retries_enabled = retries_enabled
        self.retry_policy = retry_policy
        self.feed_interval_minutes = feed_interval_minutes
        self._ensure_resilience()

    def _ensure_resilience(self) -> None:
        """Attach the recovery bundle to the world's internet when needed.

        Resilience is attached whenever the world injects faults or the
        caller asked for a specific retry policy; with retries disabled a
        never-retry policy is attached so every injected fault is felt
        (the degraded-mode experiment) while stats stay observable.
        Shard workers apply the same function to their rebuilt worlds, so
        parent and workers recover identically.
        """
        ensure_resilience(
            self.world,
            retries_enabled=self.retries_enabled,
            retry_policy=self.retry_policy,
        )

    def _require_publicwww(self):
        """The wired PublicWWW index, or a descriptive configuration error."""
        if self.world.publicwww is None:
            raise ConfigError(
                "world has no PublicWWW index, so seed patterns cannot be "
                "reversed into a publisher list; build the world with "
                "build_world() (which wires one) or attach an index to "
                "world.publicwww before running the pipeline"
            )
        return self.world.publicwww

    # ------------------------------------------------------------- stages

    def derive_patterns(self) -> list[InvariantPattern]:
        """① Invariant-pattern extraction from seed-network snippets."""
        return derive_invariant_patterns(self.world.seed_networks, self.world.config.seed)

    def reverse_publishers(self, patterns: list[InvariantPattern]) -> list[str]:
        """② PublicWWW reversal into a crawl list."""
        hits = reverse_to_publishers(patterns, self._require_publicwww())
        return merged_publisher_list(hits)

    def crawl(self, publisher_domains: list[str]) -> CrawlDataset:
        """③ Run the crawler farm."""
        farm = CrawlerFarm(self.world, self.farm_config)
        return farm.crawl(publisher_domains)

    def discover(self, crawl: CrawlDataset) -> DiscoveryResult:
        """④⑤ Cluster landing screenshots into candidate campaigns."""
        return discover_campaigns(
            crawl.interactions, eps=self.eps, min_pts=self.min_pts, theta_c=self.theta_c
        )

    def attribute(
        self, crawl: CrawlDataset, patterns: list[InvariantPattern]
    ) -> AttributionResult:
        """⑦ Attribute every triggered ad to an ad network."""
        return attribute_interactions(crawl.interactions, patterns)

    def milking_tracker(self) -> MilkingTracker:
        """A milking tracker on the world's first residential laptop.

        Milking must run from residential IP space (§3.5 — the cloaking
        workaround applies to milking as much as to crawling), so a world
        without residential vantage points cannot milk.
        """
        if not self.world.vantages_residential:
            raise ConfigError(
                "world has no residential vantage points, but milking "
                "requires one (cloaked campaigns only serve residential "
                "IP space); build the world with residential vantages or "
                "run the pipeline with with_milking=False"
            )
        return MilkingTracker(
            self.world.internet,
            self.world.gsb,
            self.world.virustotal,
            self.world.vantages_residential[0],
        )

    def feed_publisher(
        self,
        discovery: DiscoveryResult,
        attribution: AttributionResult | None = None,
    ) -> FeedPublisher:
        """A blocklist publisher wired for this run's campaign census.

        Attach it to :meth:`milk` via ``observers`` and it cuts a
        versioned :class:`~repro.feed.snapshot.FeedSnapshot` at round
        boundaries (rate-limited to one per ``feed_interval_minutes`` of
        sim time), attributing each entry to the ad network serving the
        plurality of its campaign's interactions.
        """
        return FeedPublisher(
            network_of_cluster=network_of_clusters(discovery, attribution),
            interval_minutes=self.feed_interval_minutes,
        )

    def milk(
        self, discovery: DiscoveryResult, observers: tuple = ()
    ) -> MilkingReport:
        """⑥ Verify milkable URLs and run the milking experiment.

        ``observers`` are registered on the tracker before the run — the
        hook the feed publisher uses to see discoveries live.
        """
        tracker = self.milking_tracker()
        tracker.derive_sources(discovery)
        for observer in observers:
            tracker.add_observer(observer)
        return tracker.run(self.milking_config)

    # ---------------------------------------------------------------- run

    def run(self, with_milking: bool = True) -> PipelineResult:
        """Run the full pipeline over a fresh in-process store."""
        return self.run_streaming(with_milking=with_milking)

    # ---------------------------------------------------------- streaming

    def start_streaming(
        self,
        store: RunStore | None = None,
        with_milking: bool = True,
        batch_domains: int = 1,
        workers: int = 1,
    ) -> "StreamingRun":
        """Begin a streaming run without driving it.

        Returns the :class:`StreamingRun`; the caller drains
        :meth:`StreamingRun.crawl_batches` (observing live progress along
        the way) and then calls :meth:`StreamingRun.finalize`.
        """
        if store is None:
            store = MemoryStore(run_id=f"seed-{self.world.config.seed}")
        return StreamingRun(
            self,
            store,
            with_milking=with_milking,
            batch_domains=batch_domains,
            workers=workers,
        )

    def run_streaming(
        self,
        store: RunStore | None = None,
        with_milking: bool = True,
        batch_domains: int = 1,
        workers: int = 1,
    ) -> PipelineResult:
        """Run the full pipeline, persisting into ``store`` as it goes.

        Every crawl record is ingested by the incremental stages and
        appended to ``store`` (a fresh :class:`MemoryStore` when omitted)
        the moment its publisher domain finishes crawling.  ``batch_domains``
        sets how many finished domains are grouped per analysis-stage
        ingest (any value produces the same results; it exists to bound
        per-ingest overhead and to let tests vary the batch schedule).
        ``workers`` > 1 executes the crawl across that many worker
        processes via :class:`repro.parallel.ShardedCrawlExecutor` —
        results and store contents stay byte-identical to ``workers=1``.
        """
        run = self.start_streaming(
            store,
            with_milking=with_milking,
            batch_domains=batch_domains,
            workers=workers,
        )
        for _ in run.crawl_batches():
            pass
        return run.finalize()

    def resume_streaming(
        self,
        store: RunStore,
        with_milking: bool = True,
        batch_domains: int = 1,
        workers: int = 1,
    ) -> PipelineResult:
        """Continue a streaming run that stopped mid-crawl.

        The store's ``progress`` stream tells the farm which publisher
        domains already finished; their interactions are replayed from
        the store into the incremental stages, then the crawl continues
        with the remaining domains and the run finalizes normally.

        The world must match the stored one (same
        :class:`~repro.ecosystem.world.WorldConfig`) — use
        :func:`repro.store.persist.load_world` to rebuild it.  Because
        every request-order-dependent stream in the simulation is keyed
        by crawl scope, the rebuilt world replays each remaining domain
        exactly as the interrupted run would have crawled it: the
        resumed store's streams end up *byte-identical* to an
        uninterrupted run's (the invariant ``tests/test_chaos.py``
        enforces at every crash point).
        """
        run = StreamingRun(
            self,
            store,
            with_milking=with_milking,
            batch_domains=batch_domains,
            workers=workers,
            resume=True,
        )
        for _ in run.crawl_batches():
            pass
        return run.finalize()


class StreamingRun:
    """One streaming pipeline execution over a run store.

    Wires the incremental stages to a :class:`CrawlerFarm` and a
    :class:`~repro.store.base.RunStore`:

    * per finished publisher domain: interactions and clustering hashes
      are appended to the store and a ``progress`` marker is written —
      the store is always consistent at domain granularity;
    * per ``batch_domains`` finished domains: the buffered interactions
      are fed to discovery and attribution, which update incrementally;
    * :meth:`finalize` closes the crawl summary, writes campaigns,
      attribution rows and the milking report, and returns the run's
      :class:`PipelineResult`.
    """

    def __init__(
        self,
        pipeline: SeacmaPipeline,
        store: RunStore,
        with_milking: bool = True,
        batch_domains: int = 1,
        workers: int = 1,
        resume: bool = False,
    ) -> None:
        if batch_domains < 1:
            raise ValueError("batch_domains must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.pipeline = pipeline
        self.store = store
        self.with_milking = with_milking
        self.batch_domains = batch_domains
        self.workers = workers
        self.result = PipelineResult()
        telemetry = current_telemetry()
        with telemetry.span("stage.patterns"):
            self.result.patterns = pipeline.derive_patterns()
        with telemetry.span("stage.reverse"):
            self.result.publisher_domains = pipeline.reverse_publishers(
                self.result.patterns
            )
        self.farm = CrawlerFarm(pipeline.world, pipeline.farm_config)
        self.discovery_stage = IncrementalDiscovery(
            store, eps=pipeline.eps, min_pts=pipeline.min_pts, theta_c=pipeline.theta_c
        )
        self.attribution_stage = IncrementalAttribution(store, self.result.patterns)
        #: Stages fed per ``batch_domains`` group (the store writer runs
        #: per domain, ahead of them).  Each numbers the rows it ingests
        #: itself; all of them see the store's one row order.
        self.analysis_stages = [self.discovery_stage, self.attribution_stage]
        self._buffer: list = []
        self._buffered_domains = 0
        self._finalized = False
        #: The crawl's progress and counters; its records are the
        #: store's rows, as they land.
        self.dataset = (
            self._rebuild_dataset()
            if resume
            else CrawlDataset(started_at=pipeline.world.clock.now())
        )
        self.dataset.interactions = StoredInteractions(store)
        self.writer = StoreWriter(store)
        #: The run's crawl plan.
        self.plan = self.farm.plan_crawl(
            self.result.publisher_domains, self.dataset.started_at
        )
        self.dataset.residential_dropped = self.plan.residential_dropped
        if resume:
            self._replay()
        else:
            if store.count(INTERACTIONS) or store.count(PROGRESS):
                raise StoreError(
                    f"store {store.run_id!r} already holds crawl records; "
                    "resume it with `repro resume` or start the new run in "
                    "an empty store"
                )
            # One intent for the whole identity block: a run whose
            # process dies between these writes must roll back to "no
            # run here" rather than resume from half an identity (e.g.
            # a status with no started_at would replant the virtual
            # clock at zero).
            store.begin_intent("run-init")
            store.put_meta("status", "running")
            store.put_meta("started_at", self.dataset.started_at)
            store.put_meta(
                "world_config", world_config_to_meta(pipeline.world.config)
            )
            store.put_meta(
                "patterns",
                [pattern_to_record(pattern) for pattern in self.result.patterns],
            )
            store.put_meta("publisher_domains", self.result.publisher_domains)
            store.commit_intent()

    # ----------------------------------------------------------- crawling

    def crawl_batches(self) -> Iterator[CrawlBatch]:
        """Drive the crawl, persisting and analysing batch by batch.

        Runs :attr:`plan` through the farm or the sharded executor.
        Yields each :class:`CrawlBatch` after it has been stored and (at
        ``batch_domains`` boundaries) ingested, so the consumer observes
        live progress — e.g.
        ``self.discovery_stage.finalize()`` between batches is the current
        campaign census.  Abandoning the iterator leaves the store
        resumable.
        """
        telemetry = current_telemetry()
        # NOTE: no ``workers`` attr here — the sim lane must be identical
        # across --workers counts; execution shape lives on the shard-lane
        # ``parallel.merge`` span instead.
        with telemetry.span(
            "stage.crawl",
            attrs={"publishers": len(self.result.publisher_domains)},
        ):
            if self.workers > 1:
                batches = self._make_executor().run(self.plan, self.dataset)
            else:
                batches = self.farm.run_plan(self.plan, self.dataset)
            for batch in batches:
                self._persist_batch(batch, telemetry)
                self._buffer.extend(batch.interactions)
                self._buffered_domains += 1
                if self._buffered_domains >= self.batch_domains:
                    self._flush()
                yield batch
            self._flush()

    def _persist_batch(self, batch: CrawlBatch, telemetry) -> None:
        """Store one finished domain: rows, hashes, progress — atomically.

        The batch's rows, hashes and progress marker land all-or-nothing:
        a crash inside the barrier rolls the store back to the previous
        batch boundary on resume, and the domain is simply re-crawled.
        """
        store = self.store
        store.begin_intent(f"batch:{batch.domain}")
        self.writer.ingest(batch.interactions)
        crash_point("checkpoint.persist")
        store.append(
            PROGRESS,
            progress_to_record(
                self.plan.entries[batch.position],
                clock=batch.clock,
                sessions=self.dataset.sessions,
                interaction_rows=self.writer.rows_written,
            ),
        )
        store.commit_intent()
        # The canonical per-domain span: plan-derived start, batch
        # clock end — a pure function of (world config, arguments),
        # identical whichever process ran the sessions.
        telemetry.complete_span(
            "crawl.domain",
            sim_start=batch.plan_start,
            sim_end=batch.clock,
            attrs={
                "domain": batch.domain,
                "residential": batch.residential,
                "sessions": len(PROFILES),
                "interactions": len(batch.interactions),
            },
        )

    def _make_executor(self):
        # Imported lazily: repro.parallel imports the world builder, which
        # would cycle through this module at import time.
        from repro.parallel import ShardedCrawlExecutor

        pipeline = self.pipeline
        segment_dir = getattr(self.store, "segment_dir", None)
        if segment_dir is not None:
            directory = segment_dir()
        else:
            import tempfile

            directory = tempfile.mkdtemp(prefix="seacma-shards-")
        return ShardedCrawlExecutor(
            pipeline.world,
            self.farm,
            workers=self.workers,
            segment_dir=directory,
            retries_enabled=pipeline.retries_enabled,
            retry_policy=pipeline.retry_policy,
        )

    def _flush(self) -> None:
        """Feed buffered interactions to the analysis stages."""
        if self._buffer:
            with current_telemetry().span(
                "pipeline.ingest",
                attrs={
                    "interactions": len(self._buffer),
                    "domains": self._buffered_domains,
                },
            ):
                ingest_all(self.analysis_stages, self._buffer)
            self._buffer = []
        self._buffered_domains = 0

    # ----------------------------------------------------------- finishing

    def finalize(self) -> PipelineResult:
        """Close the run: analysis results, milking, store finalization."""
        if self._finalized:
            return self.result
        self._flush()
        pipeline = self.pipeline
        store = self.store
        result = self.result
        dataset = self.dataset
        if not dataset.finished_at:
            raise ConfigError(
                "the crawl has not finished; drain crawl_batches() before "
                "calling finalize() (or use run_streaming(), which does)"
            )
        result.crawl = dataset
        telemetry = current_telemetry()
        # Everything finalize writes — summary metadata, campaigns,
        # attribution, milking, feed — is one barrier: a crash anywhere
        # inside rolls the store back to "crawl finished, not yet
        # finalized", and the resumed run finalizes from scratch instead
        # of appending a second copy behind the partial first one.
        store.begin_intent("finalize")
        store.put_meta("crawl_summary", crawl_summary_to_meta(dataset))
        with telemetry.span("stage.discovery"):
            result.discovery = self.discovery_stage.finalize()
        store.put_meta("discovery_stats", discovery_stats_to_meta(result.discovery))
        store.extend(
            CAMPAIGNS,
            (campaign_to_record(campaign) for campaign in result.discovery.campaigns),
        )
        with telemetry.span("stage.attribution"):
            result.attribution = self.attribution_stage.finalize()
        store.extend(ATTRIBUTION, attribution_to_records(result.attribution))
        with telemetry.span("stage.expansion"):
            result.new_patterns = discover_new_networks(result.attribution.unknown)
            result.expanded_publishers = expand_publisher_list(
                result.new_patterns,
                pipeline._require_publicwww(),
                already_known=set(result.publisher_domains),
            )
        store.put_meta(
            "new_patterns",
            [pattern_to_record(pattern) for pattern in result.new_patterns],
        )
        store.put_meta("expanded_publishers", result.expanded_publishers)
        if self.with_milking:
            with telemetry.span("stage.milking"):
                publisher = pipeline.feed_publisher(
                    result.discovery, result.attribution
                )
                result.milking = pipeline.milk(
                    result.discovery, observers=(publisher,)
                )
                result.feed = publisher.snapshots
            store.extend(MILKING, milking_to_records(result.milking))
            store.extend(
                FEED, (snapshot.to_record() for snapshot in result.feed)
            )
        result.fault_stats = pipeline.world.internet.fault_stats
        telemetry.record_fault_stats(result.fault_stats)
        telemetry.set_gauge("crawl.publishers", dataset.publishers_visited)
        telemetry.set_gauge(
            "discovery.campaigns", len(result.discovery.campaigns)
        )
        record_world_stats(pipeline.world)
        store.put_meta("finished_at", pipeline.world.clock.now())
        store.put_meta("status", "finished")
        store.commit_intent()
        self._finalized = True
        return result

    # ------------------------------------------------------------- resume

    def _rebuild_dataset(self) -> CrawlDataset:
        """Reconstruct crawl progress from the store's surviving streams.

        Rebuilds the :class:`CrawlDataset` the interrupted crawl held,
        at its one unit of progress, the domain: a domain whose progress
        marker never made it to disk is re-crawled from scratch.  The stored
        interactions themselves are replayed into the analysis stages by
        :meth:`_replay` once every stage exists.
        """
        store = self.store
        status = store.get_meta("status")
        if status == "finished":
            raise StoreError(
                f"run {store.run_id!r} already finished; regenerate its "
                "reports with `repro report --from-store` instead of "
                "resuming it"
            )
        if status is None:
            raise StoreError(
                f"store {store.run_id!r} holds no run to resume; start one "
                "with `repro run --store-dir DIR`"
            )
        if store.get_meta("sched_config") is not None:
            # Stores written while the crawl had an adaptive scheduler
            # record its config; continuing one with the static plan
            # would silently append a different crawl to its rounds.
            raise StoreError(
                f"run {store.run_id!r} is an adaptive (policy-scheduled) "
                "crawl, and adaptive scheduling no longer exists; its "
                "finished reports stay readable, but an unfinished run "
                "cannot be resumed — start a fresh run"
            )
        dataset = CrawlDataset(started_at=store.get_meta("started_at", 0.0))
        last = None
        for marker in store.scan(PROGRESS):
            last = marker
            dataset.completed_domains.add(marker["domain"])
            dataset.publishers_visited += 1
            if marker["residential"]:
                dataset.publishers_residential += 1
            else:
                dataset.publishers_institutional += 1
        expected_rows = last["interaction_rows"] if last is not None else 0
        rows = store.count(INTERACTIONS)
        if rows < expected_rows:
            raise StoreError(
                f"store {store.run_id!r} is missing crawl records: the last "
                f"progress marker covers {expected_rows} interaction rows "
                f"but only {rows} survive; the interactions stream was "
                "damaged after being acknowledged, so the run cannot be "
                "trusted — start a fresh run"
            )
        if rows > expected_rows:
            # The run died between appending a domain's interactions and
            # writing its progress marker.  Those rows were never
            # acknowledged — trim them (and their clustering views) and
            # re-crawl the domain.
            logger.warning(
                "store %r holds %d interaction rows past the last progress "
                "marker (torn crawl batch); trimming and re-crawling",
                store.run_id,
                rows - expected_rows,
            )
            store.truncate(INTERACTIONS, expected_rows)
            keep = sum(
                1 for record in store.scan(HASHES) if record["row"] < expected_rows
            )
            store.truncate(HASHES, keep)
        if last is not None:
            # Pick the virtual-time line back up where the run stopped.
            self.pipeline.world.clock.advance_to(last["clock"])
        return dataset

    def _replay(self) -> None:
        """Feed every stored interaction through the analysis stages.

        One :meth:`~repro.store.base.RunStore.scan` of the stream, in
        chunks; the stages keep their compact per-row facts and nothing
        else, so a resumed run holds no more than an uninterrupted one.
        """
        store = self.store
        dataset = self.dataset
        chunk: list = []
        with current_telemetry().span(
            "resume.rebuild",
            attrs={
                "rows": store.count(INTERACTIONS),
                "domains": dataset.publishers_visited,
            },
        ):
            for record in StoredInteractions(store):
                dataset.publishers_with_ads.add(record.publisher_domain)
                chunk.append(record)
                if len(chunk) >= _REPLAY_CHUNK:
                    self._replay_chunk(chunk)
                    chunk = []
            self._replay_chunk(chunk)

    def _replay_chunk(self, chunk: list) -> None:
        self.dataset.count_landings(chunk)
        ingest_all(self.analysis_stages, chunk)
