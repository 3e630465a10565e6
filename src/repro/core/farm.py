"""The crawler farm (§3.2 / §4.1).

The farm schedules crawl sessions over the publisher list with the
paper's operational structure:

* publishers whose pages embed Propeller or Clickadu are crawled from
  *residential* vantage points (three laptops), everything else from the
  institutional network — the cloaking workaround of §3.2;
* every site is visited once per user-agent profile (never twice with
  the same UA, the §6 ethics constraint);
* many container replicas run in parallel, so virtual wall-clock time
  advances by ``session_seconds / parallelism`` per session (the
  world's :attr:`~repro.ecosystem.world.WorldConfig.session_seconds`).

Scheduling is *plan-derived*, and the farm makes every plan.  A
:class:`CrawlPlan` assigns every (domain, profile) session an absolute
virtual start time and every residential session a laptop slot, both
computed from the session's position in the plan rather than from
mutable loop state.  :meth:`CrawlerFarm.plan_crawl` makes the one plan
of a crawl (publisher groups, residential cap, time step derived from
the crawl window); :meth:`CrawlerFarm.run_plan` runs it, whole or one
shard of it.  Everything else — the sharded executor, its workers, the
pipeline — receives plans and never re-plans, which is what lets
:mod:`repro.parallel` carve a plan into deterministic shards whose
merged output is byte-identical to a sequential crawl.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.browser.useragent import PROFILES
from repro.core.crawler import (
    AdInteraction,
    CrawlerConfig,
    crawl_session,
)
from repro.core.sessionbatch import SessionKernel
from repro.ecosystem.world import World
from repro.errors import ConfigError, TabCrashError, TransientError
from repro.rng import derive
from repro.telemetry import SHARD_LANE, current as current_telemetry


def shard_index(domain: str, shard_count: int) -> int:
    """The shard a publisher domain belongs to, out of ``shard_count``.

    A stable hash of the domain itself (SHA-256 via :func:`repro.rng.derive`,
    not Python's per-process ``hash``), so the partition is independent of
    list order, process and platform — re-running with the same worker
    count always reproduces the same shards.
    """
    if shard_count < 1:
        raise ConfigError(f"shard count must be at least 1, got {shard_count}")
    return derive(0, "crawl-shard", domain) % shard_count


@dataclass(frozen=True)
class FarmConfig:
    """Farm-level crawl parameters."""

    crawler: CrawlerConfig = field(default_factory=CrawlerConfig)
    #: Concurrent crawler containers; virtual time advances by
    #: ``session_seconds / parallelism`` per session.  ``None`` sizes the
    #: farm so the whole crawl spans the world's configured crawl window
    #: (keeping domain-rotation calibration honest).
    parallelism: int | None = None
    #: Cap on residential-group sites actually visited (§4.1: bandwidth
    #: limits meant only 11,182 of 34,068 such sites were crawled).
    residential_visit_fraction: float = 0.33


@dataclass
class CrawlDataset:
    """Everything a crawl produced: counters and sets, not records.

    The records themselves live in the run store.  A pipeline run's
    ``interactions`` is a read-only view over the store's rows; only the
    farm's batch :meth:`CrawlerFarm.crawl` collects them here as a list.
    """

    interactions: Sequence[AdInteraction] = ()
    sessions: int = 0
    publishers_visited: int = 0
    publishers_institutional: int = 0
    publishers_residential: int = 0
    #: Publisher domains on which at least one ad was triggered.
    publishers_with_ads: set[str] = field(default_factory=set)
    #: Clicks charged to each non-SE landing e2LD (ethics accounting, §6).
    landing_click_counts: Counter = field(default_factory=Counter)
    #: Residential-group domains the visit-fraction cap dropped (§4.1
    #: bandwidth budget) — reported so the truncation is never silent.
    residential_dropped: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        """Virtual time the crawl spanned, in seconds."""
        return self.finished_at - self.started_at

    def count_landings(self, records: Iterable[AdInteraction]) -> None:
        """Charge each record's click to its landing e2LD (§6 ethics)."""
        for record in records:
            if record.landing_e2ld:
                self.landing_click_counts[record.landing_e2ld] += 1


@dataclass
class CrawlBatch:
    """One streamed crawl increment: a publisher domain fully visited.

    The unit the streaming pipeline consumes — the farm emits one batch
    per completed domain (all user-agent profiles), carrying the
    interactions that domain's sessions recorded (possibly none).
    """

    domain: str
    residential: bool
    interactions: list[AdInteraction]
    #: Virtual time when the domain's last session finished.
    clock: float
    #: Index of the domain in the canonical crawl plan (-1 for batches
    #: constructed outside a planned crawl); shard merging orders on it.
    position: int = -1
    #: Sessions this batch actually ran (0 when every profile's session
    #: was already checkpointed).
    sessions: int = 0
    #: Plan-derived virtual start time of the domain's first session
    #: (telemetry span start; 0.0 for batches built outside a plan).
    plan_start: float = 0.0


@dataclass(frozen=True)
class PlanEntry:
    """One planned crawl unit: a publisher domain and its schedule keys."""

    domain: str
    residential: bool
    #: Index in the canonical plan; session k of this entry starts at
    #: ``plan.session_time(position, k)`` regardless of which worker (or
    #: which resume) runs it.
    position: int
    #: Residential sessions scheduled before this entry — the base of the
    #: laptop-rotation slots its own sessions occupy.
    residential_base: int


@dataclass(frozen=True)
class CrawlPlan:
    """A crawl schedule: entries plus the virtual-time grid.

    Built by the farm and handed, unchanged, to whoever runs it — the
    sequential farm, each shard worker and the merge step all read the
    one plan and therefore the identical per-session clock values and
    laptop assignments.
    """

    entries: tuple[PlanEntry, ...]
    started_at: float
    time_step: float
    residential_dropped: int = 0

    @property
    def total_sessions(self) -> int:
        return len(self.entries) * len(PROFILES)

    def session_time(self, position: int, profile_index: int) -> float:
        """Absolute virtual start time of one (domain, profile) session."""
        index = position * len(PROFILES) + profile_index
        return self.started_at + index * self.time_step

    @property
    def end_time(self) -> float:
        """Virtual time when the whole crawl is over."""
        return self.started_at + self.total_sessions * self.time_step


@dataclass
class CrawlCheckpoint:
    """Durable progress of one farm crawl.

    Captures the dataset accumulated so far plus which domains finished
    and which (domain, profile) sessions of the in-flight domain did, so a
    crawl interrupted mid-flight resumes where it stopped and loses at
    most the one in-flight session.  A finished domain's session marks
    are dropped with it: :attr:`completed_domains` already skips it.
    ``laptop_index`` preserves the residential-laptop rotation across the
    restart.
    """

    dataset: CrawlDataset
    completed_sessions: set[tuple[str, str]] = field(default_factory=set)
    completed_domains: set[str] = field(default_factory=set)
    laptop_index: int = 0
    #: ``(domain, interactions)`` of committed sessions whose domain has
    #: not finished — a crash mid-domain leaves them here, and the resumed
    #: entry's batch carries them, so no batch ever lacks a session.
    in_flight: tuple[str, list[AdInteraction]] | None = None

    def take_in_flight(self, domain: str) -> list[AdInteraction]:
        """The committed interactions of ``domain``'s unfinished entry."""
        in_flight, self.in_flight = self.in_flight, None
        if in_flight is not None and in_flight[0] == domain:
            return in_flight[1]
        return []


class CrawlerFarm:
    """Runs the full crawl over a world's publisher population."""

    def __init__(self, world: World, config: FarmConfig | None = None) -> None:
        self.world = world
        self.config = config if config is not None else FarmConfig()
        #: The session kernel driving each plan entry's inner loop.
        self.kernel = SessionKernel()
        #: Progress of the current/last :meth:`crawl` call; pass it back
        #: in to resume after a crash.
        self.checkpoint: CrawlCheckpoint | None = None

    def plan_crawl(
        self, publisher_domains: Iterable[str], started_at: float
    ) -> CrawlPlan:
        """The crawl plan for ``publisher_domains``: institutional, then
        residential entries.

        Sites embedding Propeller or Clickadu go to the residential group
        — their networks cloak on non-residential IP space.  The split is
        answered from the directory's record table (network keys only),
        so planning a crawl never materializes a publisher page; a domain
        the directory does not know is institutional.

        §4.1: the residential laptops only got through a fraction of
        their group — but never zero of a non-empty group, and the
        dropped count is carried on the plan so crawl stats report it.
        Each residential entry records how many residential sessions come
        before it — the base of its laptop-rotation slots.

        The time step is ``session_seconds / parallelism`` for a sized
        farm (the world's session budget); otherwise the plan's sessions
        spread evenly over the world's crawl window.
        """
        directory = self.world.publisher_directory
        institutional: list[str] = []
        residential: list[str] = []
        for domain in publisher_domains:
            try:
                keys = directory.network_keys_of(domain)
            except KeyError:
                institutional.append(domain)
                continue
            if "propeller" in keys or "clickadu" in keys:
                residential.append(domain)
            else:
                institutional.append(domain)
        fraction = self.config.residential_visit_fraction
        cap = 0
        if residential and fraction > 0:
            cap = max(1, int(len(residential) * fraction))
        entries = [
            PlanEntry(domain, False, position, 0)
            for position, domain in enumerate(institutional)
        ]
        for index, domain in enumerate(residential[:cap]):
            entries.append(
                PlanEntry(domain, True, len(entries), index * len(PROFILES))
            )
        config = self.world.config
        sessions = len(entries) * len(PROFILES)
        if self.config.parallelism is not None:
            time_step = config.session_seconds / self.config.parallelism
        elif sessions == 0:
            time_step = config.session_seconds
        else:
            time_step = config.crawl_window_days * 86400.0 / sessions
        return CrawlPlan(
            entries=tuple(entries),
            started_at=started_at,
            time_step=time_step,
            residential_dropped=len(residential) - cap,
        )

    def crawl(
        self,
        publisher_domains: list[str],
        checkpoint: CrawlCheckpoint | None = None,
    ) -> CrawlDataset:
        """Crawl every listed publisher with every UA profile.

        The batch entry point: drains :meth:`crawl_incremental`, collects
        every batch's interactions into the dataset, and returns the
        drained checkpoint's dataset — *not* whatever :attr:`checkpoint`
        currently aliases, so interleaved or nested ``crawl()`` calls on
        one farm each get their own dataset back.  Progress is
        checkpointed after every completed session; pass a previous
        crawl's checkpoint back in to skip the work it already finished
        (crash recovery).
        """
        if checkpoint is None:
            checkpoint = CrawlCheckpoint(
                dataset=CrawlDataset(started_at=self.world.clock.now())
            )
        dataset = checkpoint.dataset
        dataset.interactions = list(dataset.interactions)
        for batch in self.crawl_incremental(publisher_domains, checkpoint):
            dataset.interactions.extend(batch.interactions)
        return dataset

    def crawl_incremental(
        self,
        publisher_domains: list[str],
        checkpoint: CrawlCheckpoint | None = None,
    ) -> Iterator[CrawlBatch]:
        """Crawl lazily, yielding one :class:`CrawlBatch` per finished domain.

        The static plan (:meth:`plan_crawl`, starting at the checkpoint
        dataset's start) run by :meth:`run_plan`: the consumer sees each
        domain's interactions as soon as its sessions finish, while the
        checkpoint and dataset advance exactly as in :meth:`crawl`.
        """
        if checkpoint is None:
            checkpoint = CrawlCheckpoint(
                dataset=CrawlDataset(started_at=self.world.clock.now())
            )
        self.checkpoint = checkpoint
        plan = self.plan_crawl(publisher_domains, checkpoint.dataset.started_at)
        checkpoint.dataset.residential_dropped = plan.residential_dropped
        return self.run_plan(plan, checkpoint)

    def run_plan(
        self,
        plan: CrawlPlan,
        checkpoint: CrawlCheckpoint,
        shard: tuple[int, int] | None = None,
    ) -> Iterator[CrawlBatch]:
        """Run ``plan``, yielding one :class:`CrawlBatch` per finished domain.

        Every session seeks the world clock to its plan-derived start
        time before running, so the virtual-time line each domain sees is
        identical whether the plan runs sequentially, is resumed, or is
        split across shard workers.  Abandoning the iterator mid-crawl
        leaves ``checkpoint`` resumable and ``dataset.finished_at`` unset;
        domains the checkpoint already completed are skipped without
        being re-yielded.

        ``shard=(index, count)`` runs only the entries :func:`shard_index`
        assigns to shard ``index`` — at their unchanged plan positions,
        clock values and laptop slots — and leaves the end-of-crawl
        bookkeeping to the merge step.
        """
        self.checkpoint = checkpoint
        entries = plan.entries
        if shard is not None:
            index, count = shard
            if not 0 <= index < count:
                raise ConfigError(f"shard index {index} outside 0..{count - 1}")
            entries = tuple(
                entry for entry in entries if shard_index(entry.domain, count) == index
            )
        world = self.world
        telemetry = current_telemetry()
        for entry in entries:
            if entry.domain in checkpoint.completed_domains:
                continue
            plan_start = plan.session_time(entry.position, 0)
            # Operational lane: this span lives wherever the sessions
            # actually execute (parent or shard worker), so it is not part
            # of the canonical sim trace.
            with telemetry.span(
                "farm.domain",
                attrs={"domain": entry.domain, "residential": entry.residential},
                lane=SHARD_LANE,
                sim_start=plan_start,
            ), world.internet.scoped(entry.domain):
                batch, sessions_run = self.kernel.run_entry(
                    self, entry, plan, checkpoint
                )
            yield self._complete_domain(
                checkpoint, entry, batch, world.clock.now(), sessions_run,
                plan_start=plan_start,
            )
        if shard is None:
            world.clock.seek(plan.end_time)
            checkpoint.dataset.finished_at = plan.end_time

    def _complete_domain(
        self,
        checkpoint: CrawlCheckpoint,
        entry: PlanEntry,
        interactions: list[AdInteraction],
        batch_clock: float,
        sessions_run: int,
        plan_start: float = 0.0,
    ) -> CrawlBatch:
        """Per-domain bookkeeping shared by the drive and merge paths."""
        dataset = checkpoint.dataset
        dataset.publishers_visited += 1
        if entry.residential:
            dataset.publishers_residential += 1
        else:
            dataset.publishers_institutional += 1
        # The batch holds every session of the domain, including those a
        # crash interrupted (see :attr:`CrawlCheckpoint.in_flight`).
        if interactions:
            dataset.publishers_with_ads.add(entry.domain)
        checkpoint.completed_domains.add(entry.domain)
        for profile in PROFILES:
            checkpoint.completed_sessions.discard((entry.domain, profile.name))
        checkpoint.in_flight = None
        return CrawlBatch(
            domain=entry.domain,
            residential=entry.residential,
            interactions=interactions,
            clock=batch_clock,
            position=entry.position,
            sessions=sessions_run,
            plan_start=plan_start,
        )

    def absorb_batch(
        self, checkpoint: CrawlCheckpoint, entry: PlanEntry, batch: CrawlBatch
    ) -> CrawlBatch:
        """Replay a worker-produced batch into this farm's bookkeeping.

        The merge half of sharded crawling: batches arrive in canonical
        plan order and mutate the parent checkpoint/dataset exactly as
        :meth:`run_plan` would have, so downstream consumers cannot tell a
        merged crawl from a sequential one.
        """
        dataset = checkpoint.dataset
        dataset.sessions += batch.sessions
        dataset.count_landings(batch.interactions)
        if entry.residential:
            checkpoint.laptop_index = (
                entry.residential_base + len(PROFILES)
            )
        return self._complete_domain(
            checkpoint, entry, batch.interactions, batch.clock, batch.sessions,
            plan_start=batch.plan_start,
        )

    def _run_session(
        self, domain: str, profile: UserAgentProfile, vantage
    ) -> list[AdInteraction]:
        """Run one crawl session, surviving injected container crashes."""
        world = self.world
        internet = world.internet
        fault_plan = internet.fault_plan
        resilience = internet.resilience
        stats = internet.fault_stats
        if fault_plan is not None:
            try:
                fault_plan.session_crash(domain, profile.name)
            except TabCrashError:
                if stats is not None:
                    stats.sessions_crashed += 1
                current_telemetry().event(
                    "fault.session_crash",
                    {"domain": domain, "profile": profile.name},
                )
                if resilience is None or not resilience.retry.should_retry(0):
                    if stats is not None:
                        stats.sessions_lost += 1
                    return []
                # Restart the container: the crash fired before any request,
                # so the restarted session replays the world exactly.
                resilience.backoff(0, "session", domain, profile.name)
                if stats is not None:
                    stats.sessions_resumed += 1
        try:
            return crawl_session(
                internet,
                f"http://{domain}/",
                profile,
                vantage,
                self.config.crawler,
                world.config.session_seconds,
            )
        except TransientError:
            # Safety net: an unabsorbed fault killed the container
            # mid-session.  Its interactions are lost — at most one session.
            if stats is not None:
                stats.sessions_crashed += 1
                stats.sessions_lost += 1
            return []
