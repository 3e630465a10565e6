"""The policy scheduler: rounds, yield feedback and durable decisions.

``PolicyScheduler`` turns one streaming run into a sequence of crawl
*rounds*.  Each round:

1. the policy allocates a slice of the remaining session budget over the
   per-network publisher queues (:meth:`begin_round`), and the chosen
   domains + round metadata are persisted to the ``policy`` stream
   *before* any crawling — so a crash mid-round resumes the identical
   round;
2. the round carries the farm's :class:`~repro.core.farm.CrawlPlan` for
   its domains (:meth:`~repro.core.farm.CrawlerFarm.plan_round`) on one
   global virtual-time grid — a ``time_step`` derived from the whole
   session budget, so round k+1 starts exactly where round k ended — and
   the pipeline runs that plan like any other, through the farm or the
   sharded executor;
3. :meth:`complete_round` measures the round's yield from the streaming
   stages — SE-campaign membership of the round's interactions, newly
   won SE clusters, network attributions — folds it into the cumulative
   arm statistics, and persists those inside the ``policy.update.pre`` /
   ``policy.update.post`` crash-point bracket.

The scheduler is itself an analysis stage: it ingests the same batches
as discovery and attribution and keeps, per row, only the arm of the
row's publisher, plus the clustering pair of each row of the current
round — never the interactions.

Every quantity feeding a decision is computed from merged, plan-ordered
data (the store's row order), so the decisions — and therefore every
byte of the ``policy`` stream — are identical across worker counts.  On
resume the statistics are replayed from the stream and an in-flight
round is re-entered from its persisted record, which makes crash→resume
byte-identical at any crash point (proven in ``tests/test_chaos.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.browser.useragent import PROFILES
from repro.chaos.points import crash_point
from repro.core.crawler import AdInteraction
from repro.core.farm import CrawlerFarm, CrawlPlan
from repro.errors import ConfigError
from repro.rng import rng_for
from repro.sched.policy import ArmStats, SchedConfig, make_policy
from repro.store.base import POLICY, RunStore
from repro.telemetry import current as current_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import StreamingRun

#: Default number of rounds the budget is spread over when
#: ``SchedConfig.round_domains`` is not set.
DEFAULT_ROUNDS = 12

#: Arm key for publishers whose primary network is not in the directory.
UNKNOWN_ARM = "unknown"

#: Domain threshold for *candidate* SE clusters (the early reward
#: signal): the cluster must span at least two landing domains — one
#: sighting proves nothing — but need not reach the pipeline's theta_c.
CANDIDATE_THETA = 2


@dataclass(frozen=True)
class RoundPlan:
    """One scheduled crawl round, as persisted to the ``policy`` stream."""

    index: int
    #: The round's domains in allocation order (the persisted order).
    domains: tuple[str, ...]
    #: ``interactions``-stream row count when the round began; the
    #: feedback pass scores exactly the rows this round appended.
    start_row: int
    allocation: dict[str, int]
    #: The farm's plan for ``domains`` on the scheduler's global grid.
    crawl: CrawlPlan


class PolicyScheduler:
    """Drives round-based adaptive crawling for one streaming run."""

    def __init__(
        self,
        farm: CrawlerFarm,
        store: RunStore,
        plan: CrawlPlan,
        config: SchedConfig,
    ) -> None:
        self.farm = farm
        self.store = store
        self.config = config
        self.policy = make_policy(config)
        world = farm.world
        self.seed = world.config.seed

        # The eligible universe is the run's static plan: the §4.1
        # residential cap applied once over the whole run, institutional
        # domains first.  Round plans never re-cap their slice of it.
        self.eligible: list[str] = [entry.domain for entry in plan.entries]
        if not self.eligible:
            raise ConfigError(
                "adaptive scheduling needs at least one eligible publisher"
            )

        directory = world.publisher_directory
        self.arm_of: dict[str, str] = {}
        for domain in self.eligible:
            try:
                keys = directory.network_keys_of(domain)
            except KeyError:
                keys = ()
            self.arm_of[domain] = keys[0] if keys else UNKNOWN_ARM

        budget_sessions = config.session_budget
        if budget_sessions is None:
            budget_sessions = len(self.eligible) * len(PROFILES)
        self.budget_domains = min(
            len(self.eligible), budget_sessions // len(PROFILES)
        )
        if self.budget_domains < 1:
            raise ConfigError(
                f"session budget {budget_sessions} is below one full "
                f"publisher visit ({len(PROFILES)} sessions)"
            )
        #: One global virtual-time grid for the whole budget: rounds chain
        #: on it, so the time line is independent of how the budget is cut
        #: into rounds (and of worker counts, like the static plan).
        self.time_step = farm.plan_time_step(
            self.budget_domains * len(PROFILES)
        )
        arms = sorted(set(self.arm_of.values()))
        if config.round_domains is not None:
            self.round_size = config.round_domains
        else:
            self.round_size = max(
                1, len(arms), self.budget_domains // DEFAULT_ROUNDS
            )

        #: Unvisited publishers per arm, in eligible (plan) order.
        self.queues: dict[str, list[str]] = {arm: [] for arm in arms}
        for domain in self.eligible:
            self.queues[self.arm_of[domain]].append(domain)
        #: Unvisited publishers in eligible order (the static-policy walk).
        self.global_queue: list[str] = list(self.eligible)

        self.stats: dict[str, ArmStats] = {}
        self.budget_left = self.budget_domains
        self.next_round = 0
        self.last_round_end: float | None = None
        self._pending: RoundPlan | None = None
        #: The arm of every ingested row's publisher, in row order.
        self.arm_rows: list[str] = []
        #: First row of the round being crawled (``None`` between rounds)
        #: and the ``(dhash, e2LD)`` pair of each of its rows so far.
        self._round_start: int | None = None
        self._round_pairs: list[tuple[int, str] | None] = []

    # -------------------------------------------------------------- stage

    name = "sched"

    def ingest(self, batch: Iterable[AdInteraction]) -> None:
        """Note each row's arm, and the pairs of the current round's rows."""
        for record in batch:
            row = len(self.arm_rows)
            self.arm_rows.append(self.arm_of.get(record.publisher_domain, UNKNOWN_ARM))
            if self._round_start is not None and row >= self._round_start:
                self._round_pairs.append(
                    (record.screenshot_hash, record.landing_e2ld)
                    if record.landing_e2ld
                    else None
                )

    def finalize(self) -> dict[str, ArmStats]:
        """The cumulative arm statistics so far."""
        return self.stats

    # ------------------------------------------------------------- rounds

    def begin_round(self, run: "StreamingRun") -> RoundPlan | None:
        """Allocate and persist the next round, or ``None`` when done.

        The round record is committed before any of the round's sessions
        run: a crash later in the round rolls back at most the torn crawl
        batch, and the resumed run re-enters the *same* round — same
        domains, same virtual-time grid, same start row.
        """
        if self._pending is not None:
            plan = self._pending
            self._pending = None
            return plan
        if self.budget_left <= 0 or not self.global_queue:
            return None
        budget_round = min(self.round_size, self.budget_left, len(self.global_queue))
        round_index = self.next_round
        if self.policy.ordered:
            domains = list(self.global_queue[:budget_round])
            allocation = dict(
                sorted(Counter(self.arm_of[d] for d in domains).items())
            )
        else:
            queue_sizes = {arm: len(queue) for arm, queue in self.queues.items()}
            rng = rng_for(self.seed, "sched", self.policy.name, round_index)
            grants = self.policy.allocate(
                round_index, queue_sizes, self.stats, budget_round, rng
            )
            allocation = dict(sorted(grants.items()))
            domains = []
            for arm in sorted(allocation):
                domains.extend(self.queues[arm][: allocation[arm]])
        started_at = self.farm.world.clock.now()
        if self.last_round_end is not None and self.last_round_end > started_at:
            started_at = self.last_round_end
        plan = RoundPlan(
            index=round_index,
            domains=tuple(domains),
            start_row=run.writer.rows_written,
            allocation=allocation,
            crawl=self.farm.plan_round(domains, started_at, self.time_step),
        )
        store = self.store
        store.begin_intent(f"policy-round:{round_index}")
        store.append(POLICY, self._round_record(plan))
        store.commit_intent()
        self._consume(domains)
        self.budget_left -= len(domains)
        self.next_round = round_index + 1
        self.last_round_end = plan.crawl.end_time
        self._round_start = plan.start_row
        return plan

    def complete_round(self, run: "StreamingRun", plan: RoundPlan) -> None:
        """Score the round's yield and persist the updated arm statistics.

        Runs after the round's batches are stored *and* flushed into the
        analysis stages, so every input — interaction rows, attribution
        keys, the SE-campaign census — is merged, plan-ordered data that
        is identical whichever workers produced it.
        """
        end_row = run.writer.rows_written
        arms = self.arm_rows[plan.start_row : end_row]
        keys = run.attribution_stage.keys[plan.start_row : end_row]
        pairs, self._round_pairs = self._round_pairs, []
        self._round_start = None
        discovery = run.discovery_stage.finalize()
        se_pairs = {
            pair
            for campaign in discovery.seacma_campaigns
            for pair in campaign.pairs
        }
        # Candidate SE clusters: triaged as attacks but not yet spread
        # over theta_c domains.  Rewarding them gives the policy a
        # gradient rounds before the first confirmed hit.
        candidate_pairs = {
            pair
            for campaign in run.discovery_stage.finalize(
                theta_c=CANDIDATE_THETA
            ).seacma_campaigns
            for pair in campaign.pairs
        } - se_pairs
        se_by_arm: Counter = Counter()
        candidates_by_arm: Counter = Counter()
        attributed_by_arm: Counter = Counter()
        for arm, pair, key in zip(arms, pairs, keys):
            if pair is not None:
                if pair in se_pairs:
                    se_by_arm[arm] += 1
                elif pair in candidate_pairs:
                    candidates_by_arm[arm] += 1
            if key is not None:
                attributed_by_arm[arm] += 1
        # SE clusters are credited to the arm serving the plurality of
        # their interactions (lexicographic tie-break); each arm's level
        # can move as clusters form, grow or merge.
        cluster_levels: Counter = Counter()
        for campaign in discovery.seacma_campaigns:
            votes = Counter(self.arm_rows[row] for row in campaign.rows)
            winner = min(votes.items(), key=lambda item: (-item[1], item[0]))[0]
            cluster_levels[winner] += 1

        config = self.config
        round_reward = 0.0
        touched = sorted(
            set(plan.allocation)
            | set(se_by_arm)
            | set(candidates_by_arm)
            | set(attributed_by_arm)
            | set(cluster_levels)
            | set(self.stats)
        )
        for arm in touched:
            stats = self.stats.setdefault(arm, ArmStats())
            pulls = plan.allocation.get(arm, 0)
            cluster_delta = max(0, cluster_levels[arm] - stats.clusters)
            reward = (
                float(se_by_arm[arm])
                + config.candidate_weight * candidates_by_arm[arm]
                + config.cluster_weight * cluster_delta
                + config.attribution_weight * attributed_by_arm[arm]
            )
            stats.pulls += pulls
            stats.sessions += pulls * len(PROFILES)
            stats.reward += reward
            stats.se_hits += se_by_arm[arm]
            stats.candidates += candidates_by_arm[arm]
            stats.attributed += attributed_by_arm[arm]
            stats.clusters = cluster_levels[arm]
            round_reward += reward

        store = self.store
        store.begin_intent(f"policy-update:{plan.index}")
        crash_point("policy.update.pre")
        store.append(
            POLICY,
            {
                "kind": "stats",
                "round": plan.index,
                "rows": [plan.start_row, end_row],
                "reward": round_reward,
                "arms": {arm: asdict(self.stats[arm]) for arm in touched},
            },
        )
        crash_point("policy.update.post")
        store.commit_intent()

        telemetry = current_telemetry()
        # Canonical sim-lane span: every attribute is a pure function of
        # (seed, store prefix), so the trace stays byte-identical across
        # worker counts.
        telemetry.complete_span(
            "sched.round",
            sim_start=plan.crawl.started_at,
            sim_end=plan.crawl.end_time,
            attrs={
                "round": plan.index,
                "policy": self.policy.name,
                "domains": len(plan.domains),
                "interactions": end_row - plan.start_row,
                "se_hits": sum(se_by_arm.values()),
            },
        )
        for arm in sorted(plan.allocation):
            telemetry.inc(f"sched.pulls.{arm}", plan.allocation[arm])
        for arm in sorted(se_by_arm):
            telemetry.inc(f"sched.se_hits.{arm}", se_by_arm[arm])

    # ------------------------------------------------------------- resume

    def resume(self, run: "StreamingRun") -> None:
        """Replay persisted decisions so the run continues identically.

        Completed rounds contribute their recorded statistics verbatim;
        a trailing round record without a matching stats record is the
        in-flight round — it is re-entered as the pending round, and its
        feedback is recomputed from the (replayed) stages through the
        exact code path an uninterrupted run takes.
        """
        rounds: dict[int, dict[str, Any]] = {}
        last_stats: dict[str, Any] | None = None
        for record in self.store.read(POLICY):
            if record.get("kind") == "round":
                rounds[record["round"]] = record
            elif record.get("kind") == "stats":
                last_stats = record
        if last_stats is not None:
            self.stats = {
                arm: ArmStats(**payload)
                for arm, payload in last_stats["arms"].items()
            }
        consumed = [
            domain for index in sorted(rounds) for domain in rounds[index]["domains"]
        ]
        self._consume(consumed)
        self.budget_left = self.budget_domains - len(consumed)
        if not rounds:
            return
        # Rounds are recorded one at a time, each after the previous
        # round's stats, so only the last recorded round can be in flight.
        record = rounds[max(rounds)]
        last = RoundPlan(
            index=record["round"],
            domains=tuple(record["domains"]),
            start_row=record["start_row"],
            allocation=dict(sorted(record["allocation"].items())),
            crawl=self.farm.plan_round(
                record["domains"], record["started_at"], record["time_step"]
            ),
        )
        self.next_round = last.index + 1
        self.last_round_end = last.crawl.end_time
        done = last_stats["round"] if last_stats is not None else -1
        if last.index == done + 1:
            self._pending = last
            # The replay that follows re-collects the round's stored rows.
            self._round_start = last.start_row

    # ------------------------------------------------------------ helpers

    def finished_at(self) -> float:
        """Virtual end time of the crawl: the last round's grid end."""
        if self.last_round_end is not None:
            return self.last_round_end
        return self.farm.world.clock.now()

    def _consume(self, domains: list[str]) -> None:
        taken = set(domains)
        if not taken:
            return
        for arm, queue in self.queues.items():
            self.queues[arm] = [d for d in queue if d not in taken]
        self.global_queue = [d for d in self.global_queue if d not in taken]

    def _round_record(self, plan: RoundPlan) -> dict[str, Any]:
        return {
            "kind": "round",
            "round": plan.index,
            "policy": self.policy.name,
            "domains": list(plan.domains),
            "started_at": plan.crawl.started_at,
            "time_step": plan.crawl.time_step,
            "start_row": plan.start_row,
            "allocation": plan.allocation,
        }
