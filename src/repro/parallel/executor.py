"""The sharded crawl executor: worker processes + plan-order merge.

Parallelism model (see ``DESIGN.md``, "Parallel crawl"):

* the executor is handed a :class:`~repro.core.farm.CrawlPlan` (made by
  the farm) and assigns each plan entry to a shard with
  :func:`~repro.core.farm.shard_index` (a stable hash of the publisher
  domain, independent of list order, process and platform);
* each worker process rebuilds its own simulated world from the shared
  :class:`~repro.ecosystem.world.WorldConfig`, receives the same plan in
  its :class:`ShardSpec`, runs only its shard's entries of it — at those
  entries' *plan* clock times and laptop slots, never re-planning — and
  streams the finished batches into a JSONL segment file;
* the parent tails the segments and re-emits the batches in canonical
  plan order, replaying each into its own farm bookkeeping
  (:meth:`~repro.core.farm.CrawlerFarm.absorb_batch`), then reconciles
  the side-band state (fault stats, ad-network impression counters,
  fetch count, the virtual clock, campaign domain pools) so the parent
  world ends the crawl in the same state a sequential crawl leaves it.

Because every request-order-dependent stream in the simulation is keyed
by crawl scope (the publisher domain driving the traffic), a domain's
sessions produce identical interactions no matter which process runs
them or what else runs beside them — which is what makes the merged
stream byte-identical to the sequential one.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.chaos.points import CRASH_EXIT_CODE, CrashError, crash_point
from repro.core.farm import (
    CrawlBatch,
    CrawlDataset,
    CrawlerFarm,
    CrawlPlan,
    PlanEntry,
    shard_index,
)
from repro.ecosystem.world import WorldConfig, build_world
from repro.errors import ConfigError, ReproError
from repro.faults.retry import ensure_resilience
from repro.faults.stats import FaultStats
from repro.store.jsonl import encode_record
from repro.store.segments import (
    SegmentReader,
    batch_from_segment_record,
    batch_to_segment_record,
    segment_path,
    summary_to_segment_record,
)
from repro.telemetry import (
    SHARD_LANE,
    Telemetry,
    current as current_telemetry,
    use as use_telemetry,
)

#: Parent-side poll interval while waiting for the next in-order batch.
_POLL_SECONDS = 0.01
#: Per-shard budget of deterministic respawns after a worker is killed
#: (by signal, or by a scheduled chaos crash).  A worker that *fails* —
#: raises, exits nonzero on its own — is never respawned: failures are
#: application bugs to surface, deaths are infrastructure weather to
#: absorb.
_MAX_RESPAWNS = 3

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker process needs to crawl its shard.

    Fully picklable and self-contained: the worker rebuilds its world
    from ``world_config`` alone and runs its shard of ``plan`` as
    given, so the spec works under both ``fork`` and ``spawn`` start
    methods (``tests/test_parallel_crawl.py`` runs both).
    """

    world_config: WorldConfig
    retries_enabled: bool
    plan: CrawlPlan
    completed_domains: frozenset[str]
    shard: int
    shard_count: int
    segment_path: str
    #: Mirror the parent's telemetry state: when on, the worker runs its
    #: own :class:`~repro.telemetry.Telemetry` and ships spans + metrics
    #: home through the segment file.
    telemetry: bool = False


def run_shard(spec: ShardSpec) -> None:
    """Worker entry point: crawl one shard into its segment file.

    Runs in a child process.  Any exception is recorded as a final
    ``error`` record in the segment (so the parent can report *why* the
    shard died, not just that it did) and then re-raised to fail the
    process.
    """
    path = Path(spec.segment_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:

        def emit(record: dict) -> None:
            crash_point("segment.emit.pre")
            handle.write(encode_record(record))
            crash_point("segment.emit.mid", flush=handle)
            handle.write("\n")
            handle.flush()
            crash_point("segment.emit.post")

        try:
            world = build_world(spec.world_config)
            ensure_resilience(world, retries_enabled=spec.retries_enabled)
            telemetry = Telemetry(world.clock) if spec.telemetry else None
            farm = CrawlerFarm(world)
            dataset = CrawlDataset(completed_domains=set(spec.completed_domains))
            batches = farm.run_plan(
                spec.plan, dataset, shard=(spec.shard, spec.shard_count)
            )
            if telemetry is not None:
                with use_telemetry(telemetry):
                    for batch in batches:
                        emit(batch_to_segment_record(batch))
                # Shipped home before the summary so the parent adopts the
                # spans no later than it learns the shard finished.
                emit(
                    {
                        "kind": "spans",
                        "shard": spec.shard,
                        "spans": telemetry.tracer.records(include_wall=True),
                    }
                )
            else:
                for batch in batches:
                    emit(batch_to_segment_record(batch))
            stats = world.internet.fault_stats
            emit(
                summary_to_segment_record(
                    shard=spec.shard,
                    fault_stats=stats.snapshot() if stats is not None else None,
                    network_counters={
                        key: {
                            "impressions": server.impressions,
                            "se_impressions": server.se_impressions,
                            "syndicated_impressions": server.syndicated_impressions,
                        }
                        for key, server in world.networks.items()
                    },
                    fetch_count=world.internet.fetch_count,
                    metrics=(
                        telemetry.metrics.snapshot()
                        if telemetry is not None
                        else None
                    ),
                    materialized=sorted(
                        world.publisher_directory.stats.distinct
                    ),
                )
            )
        except CrashError:
            # A scheduled chaos crash: die hard, like the SIGKILL it
            # stands in for.  No dying-breath error record — the parent
            # must observe a dead worker to recover from, not an
            # application failure to report.
            os._exit(CRASH_EXIT_CODE)
        except Exception as error:  # noqa: BLE001 - forwarded to the parent
            emit({"kind": "error", "shard": spec.shard, "message": str(error)})
            raise


class ShardedCrawlExecutor:
    """Runs a farm crawl across worker processes, merged in plan order.

    A drop-in replacement for :meth:`~repro.core.farm.CrawlerFarm.run_plan`:
    :meth:`run` yields the same :class:`~repro.core.farm.CrawlBatch`
    sequence — same order, same contents, same clock values — while the
    sessions actually execute K-wide in child processes.
    """

    def __init__(
        self,
        world,
        farm: CrawlerFarm,
        workers: int,
        segment_dir: str | Path,
        retries_enabled: bool = True,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, got {workers}")
        self.world = world
        self.farm = farm
        self.workers = workers
        self.segment_dir = Path(segment_dir)
        self.retries_enabled = retries_enabled
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = multiprocessing.get_context("spawn")
        #: ``kind == "spans"`` segment records, keyed by shard so a
        #: respawned worker's payload replaces its predecessor's.
        self._span_payloads: dict[int, dict] = {}
        self._respawns: dict[int, int] = {}
        #: The plan of the current :meth:`run`, handed to every (re)launch.
        self._plan: CrawlPlan | None = None

    # ------------------------------------------------------------------ run

    def run(self, plan: CrawlPlan, dataset: CrawlDataset) -> Iterator[CrawlBatch]:
        """Run ``plan`` into ``dataset`` with worker processes.

        Yields finished batches in plan order as soon as each becomes
        available, updating ``dataset`` exactly as
        :meth:`~repro.core.farm.CrawlerFarm.run_plan` would.  The segment
        directory is removed on every exit — finished, failed or
        abandoned — since segments are transport, never recovery state.
        """
        self._plan = plan
        pending = [
            entry
            for entry in plan.entries
            if entry.domain not in dataset.completed_domains
        ]
        summaries: list[dict] = []
        self._span_payloads = {}
        self._respawns = {}
        try:
            processes, readers = self._spawn(dataset)
            try:
                yield from self._merge(
                    pending, processes, readers, summaries, dataset
                )
                # Workers write their summary *after* their last batch;
                # the merge only waits for batches, so wait for every
                # summary before the finally block may terminate a
                # mid-write worker.
                self._await_summaries(processes, readers, summaries, dataset)
            finally:
                for process in processes:
                    if process.is_alive():
                        process.terminate()
                    process.join()
            telemetry = current_telemetry()
            crash_point("parallel.merge.pre")
            with telemetry.span(
                "parallel.merge", attrs={"workers": self.workers}, lane=SHARD_LANE
            ):
                self._reconcile(plan, dataset, summaries)
                if telemetry.enabled:
                    for shard in sorted(self._span_payloads):
                        payload = self._span_payloads[shard]
                        telemetry.tracer.adopt_shard_records(
                            payload["spans"], payload["shard"]
                        )
            crash_point("parallel.merge.post")
        finally:
            shutil.rmtree(self.segment_dir, ignore_errors=True)

    # ------------------------------------------------------------- plumbing

    def _spawn(self, dataset: CrawlDataset) -> tuple[list, list[SegmentReader]]:
        """Start one worker per shard (fork when available, else spawn)."""
        processes = []
        readers = []
        for shard in range(self.workers):
            process, reader = self._launch(shard, dataset)
            processes.append(process)
            readers.append(reader)
        return processes, readers

    def _launch(
        self, shard: int, dataset: CrawlDataset
    ) -> tuple[object, SegmentReader]:
        """(Re)start one shard worker on a clean segment file.

        The spec's ``completed_domains`` is read from the parent's
        ``dataset`` at launch time, so a *respawned* worker skips every domain the
        merge already absorbed — including its dead predecessor's — and
        re-crawls only the remainder, deterministically (all
        request-order-dependent streams are keyed by domain).  The old
        segment file is unlinked first: its torn tail dies with it, and
        the fresh :class:`SegmentReader` starts at offset zero.
        """
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        path = segment_path(self.segment_dir, shard, self.workers)
        path.unlink(missing_ok=True)
        spec = ShardSpec(
            world_config=self.world.config,
            retries_enabled=self.retries_enabled,
            plan=self._plan,
            completed_domains=frozenset(dataset.completed_domains),
            shard=shard,
            shard_count=self.workers,
            segment_path=str(path),
            telemetry=current_telemetry().enabled,
        )
        process = self._context.Process(
            target=run_shard, args=(spec,), name=f"crawl-shard-{shard}"
        )
        process.start()
        return process, SegmentReader(path)

    def _handle_death(
        self,
        shard: int,
        processes: list,
        readers: list[SegmentReader],
        summaries: list[dict],
        context: str,
        dataset: CrawlDataset,
    ) -> None:
        """A worker exited abnormally: respawn a killed one, raise otherwise.

        Death by signal (``exitcode < 0``) or by a scheduled chaos crash
        (:data:`~repro.chaos.points.CRASH_EXIT_CODE`) is recoverable
        infrastructure weather; any other nonzero exit is an application
        failure and still raises.  A worker whose summary record already
        reached the parent finished its work — its death is ignored.
        """
        process = processes[shard]
        code = process.exitcode
        if any(record["shard"] == shard for record in summaries):
            return
        if code is not None and code >= 0 and code != CRASH_EXIT_CODE:
            raise ReproError(
                f"crawl shard {shard} (pid {process.pid}) exited with code "
                f"{code} {context}{self._shard_error(readers[shard])}"
            )
        count = self._respawns.get(shard, 0) + 1
        if count > _MAX_RESPAWNS:
            raise ReproError(
                f"crawl shard {shard} died {count} times (last exit {code}) "
                f"{context}; respawn budget exhausted"
            )
        self._respawns[shard] = count
        logger.warning(
            "crawl shard %d died (exit %s) %s; respawning (%d/%d)",
            shard,
            code,
            context,
            count,
            _MAX_RESPAWNS,
        )
        current_telemetry().inc("parallel.worker_respawns")
        processes[shard], readers[shard] = self._launch(shard, dataset)

    def _merge(
        self,
        pending: list[PlanEntry],
        processes: list,
        readers: list[SegmentReader],
        summaries: list[dict],
        dataset: CrawlDataset,
    ) -> Iterator[CrawlBatch]:
        """Re-emit worker batches in canonical plan order."""
        world = self.world
        arrived: dict[int, CrawlBatch] = {}
        for entry in pending:
            shard = shard_index(entry.domain, self.workers)
            while entry.position not in arrived:
                progressed = self._drain(readers, arrived, summaries)
                if entry.position in arrived:
                    break
                process = processes[shard]
                if not process.is_alive() and process.exitcode not in (0, None):
                    self._handle_death(
                        shard,
                        processes,
                        readers,
                        summaries,
                        f"before finishing {entry.domain!r}",
                        dataset,
                    )
                    continue
                if not progressed:
                    time.sleep(_POLL_SECONDS)
            batch = arrived.pop(entry.position)
            # Mirror the sequential drive: the parent clock tracks the
            # just-finished domain's last session between yields.
            world.clock.seek(batch.clock)
            yield self.farm.absorb_batch(dataset, entry, batch)

    def _await_summaries(
        self,
        processes: list,
        readers: list[SegmentReader],
        summaries: list[dict],
        dataset: CrawlDataset,
    ) -> None:
        """Block until every shard's summary record has been read."""
        leftovers: dict[int, CrawlBatch] = {}
        while len(summaries) < self.workers:
            progressed = self._drain(readers, leftovers, summaries)
            if len(summaries) >= self.workers:
                return
            delivered = {record["shard"] for record in summaries}
            exited_cleanly = False
            for shard, process in enumerate(processes):
                if shard in delivered or process.is_alive():
                    continue
                if process.exitcode not in (0, None):
                    self._handle_death(
                        shard,
                        processes,
                        readers,
                        summaries,
                        "before delivering its summary record",
                        dataset,
                    )
                    continue
                exited_cleanly = True
            if not progressed:
                if exited_cleanly:
                    # Dead with exit 0 means its segment is fully flushed;
                    # nothing new to read and still no summary is a bug.
                    raise ReproError(
                        "a crawl shard exited without writing its summary "
                        "record; the crawl is incomplete"
                    )
                time.sleep(_POLL_SECONDS)

    def _drain(
        self,
        readers: list[SegmentReader],
        arrived: dict[int, CrawlBatch],
        summaries: list[dict],
    ) -> bool:
        """Pull newly completed records from every segment."""
        progressed = False
        for reader in readers:
            for record in reader.poll():
                progressed = True
                kind = record.get("kind")
                if kind == "batch":
                    batch = batch_from_segment_record(record)
                    arrived[batch.position] = batch
                elif kind == "summary":
                    summaries.append(record)
                elif kind == "spans":
                    # Keyed by shard: a respawned worker's payload covers
                    # its whole shard and supersedes the dead attempt's.
                    self._span_payloads[record["shard"]] = record
                elif kind == "error":
                    raise ReproError(
                        f"crawl shard {record.get('shard')} failed: "
                        f"{record.get('message')}"
                    )
        return progressed

    @staticmethod
    def _shard_error(reader: SegmentReader) -> str:
        """A trailing error record's message, if the worker left one."""
        try:
            for record in reader.poll():
                if record.get("kind") == "error":
                    return f": {record.get('message')}"
        except ReproError:
            pass
        return ""

    def _reconcile(
        self,
        plan: CrawlPlan,
        dataset: CrawlDataset,
        summaries: list[dict],
    ) -> None:
        """Bring the parent world to the sequential end-of-crawl state."""
        world = self.world
        if len(summaries) != self.workers:
            raise ReproError(
                f"only {len(summaries)} of {self.workers} crawl shards "
                "delivered a summary record; the crawl is incomplete"
            )
        parent_stats = world.internet.fault_stats
        telemetry = current_telemetry()
        for summary in sorted(summaries, key=lambda record: record["shard"]):
            snapshot = summary.get("fault_stats")
            if snapshot is not None and parent_stats is not None:
                parent_stats.merge(FaultStats.restore(snapshot))
            metrics = summary.get("metrics")
            if metrics is not None and telemetry.enabled:
                telemetry.metrics.merge(metrics)
            # Pages were derived in whichever worker crawled the domain;
            # the union of the shards' sets is exactly what a sequential
            # crawl builds, keeping the materialized-publishers gauge
            # worker-invariant now that reversal answers from the record
            # index instead of sweeping the population.
            world.publisher_directory.stats.distinct.update(
                summary.get("materialized") or ()
            )
            for key, counters in summary.get("networks", {}).items():
                server = world.networks.get(key)
                if server is None:
                    continue
                server.impressions += counters["impressions"]
                server.se_impressions += counters["se_impressions"]
                server.syndicated_impressions += counters["syndicated_impressions"]
            world.internet.absorb_fetch_count(summary.get("fetch_count", 0))
        world.clock.seek(plan.end_time)
        dataset.finished_at = plan.end_time
        # The workers' campaign servers rotated their throwaway-domain
        # pools while serving; pool schedules are a pure function of the
        # latest time queried, so one end-of-crawl rotation reproduces the
        # activations (and their GSB feed events, stamped with activation
        # time) the sequential crawl accumulated.
        for campaign in world.campaigns:
            campaign.active_attack_domain(plan.end_time)
