"""Policy-vs-static evaluation harness.

Answers the question the scheduler exists for: *given the same session
budget, how much more attack surface does an adaptive policy find than
the canonical plan order?*  Each policy runs against a freshly built
world (same :class:`~repro.ecosystem.world.WorldConfig`, so identical
ground truth) with the same :class:`~repro.sched.policy.SchedConfig`
budget, and is scored on what the paper cares about:

* **SE interactions per session** — discovery efficiency, the headline
  metric ``benchmarks/bench_policy.py`` gates on;
* **time to first sighting** — virtual seconds until the first SE-campaign
  interaction lands (lower = the feed protects users sooner);
* **campaigns** — distinct confirmed SE campaigns;
* **discovered networks** — previously-unknown ad networks surfaced by
  the unknown-ad expansion stage (the exploration floor's job: an
  exploit-only policy starves the arms that host them).

The static baseline is ``SchedConfig(policy="static", session_budget=N)``
— the *ordered* policy that walks the canonical plan order until the
budget is spent, i.e. exactly what a budget-capped pre-scheduler crawl
would have done.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.milking import MilkingConfig
from repro.core.pipeline import SeacmaPipeline
from repro.ecosystem.world import WorldConfig, build_world
from repro.sched.policy import SchedConfig
from repro.store import POLICY
from repro.store.memory import MemoryStore


@dataclass(frozen=True)
class PolicyOutcome:
    """One policy's score card for a fixed (world, budget)."""

    policy: str
    sessions: int
    rounds: int
    se_interactions: int
    campaigns: int
    #: Virtual timestamp (seconds) of the first SE-campaign interaction;
    #: ``None`` when the run found no SE interaction at all.
    first_sighting: float | None
    #: Previously-unknown ad networks surfaced by the expansion stage.
    discovered_networks: tuple[str, ...]
    #: Final cumulative pulls per crawl arm (ad-network key).
    pulls: dict[str, int]

    @property
    def se_per_session(self) -> float:
        """SE interactions per crawl session (discovery efficiency)."""
        return self.se_interactions / self.sessions if self.sessions else 0.0


def evaluate_policy(
    world_config: WorldConfig,
    sched_config: SchedConfig,
    workers: int = 1,
    milking_days: float = 0.25,
) -> PolicyOutcome:
    """Run one policy against a fresh world and score it.

    The world is rebuilt from ``world_config`` so successive calls (one
    per policy) see identical ground truth — nothing leaks between
    policies through mutated world state.
    """
    world = build_world(world_config)
    pipeline = SeacmaPipeline(
        world,
        milking_config=MilkingConfig(
            duration_days=milking_days, post_lookup_days=milking_days
        ),
        sched_config=sched_config,
    )
    store = MemoryStore(run_id=f"eval-{sched_config.policy}")
    result = pipeline.run_streaming(
        store, with_milking=False, workers=workers
    )
    se_records = result.discovery.se_interactions()
    rounds = 0
    pulls: dict[str, int] = {}
    for record in store.read(POLICY):
        if record["kind"] == "round":
            rounds += 1
        elif record["kind"] == "stats":
            pulls = {
                arm: payload["pulls"]
                for arm, payload in record["arms"].items()
            }
    return PolicyOutcome(
        policy=sched_config.policy,
        sessions=result.crawl.sessions,
        rounds=rounds,
        se_interactions=len(se_records),
        campaigns=len(result.discovery.seacma_campaigns),
        first_sighting=(
            min(record.timestamp for record in se_records)
            if se_records
            else None
        ),
        discovered_networks=tuple(
            sorted(pattern.network_name for pattern in result.new_patterns)
        ),
        pulls=pulls,
    )
