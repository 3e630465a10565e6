"""Adaptive crawl scheduling: policies, rounds, and byte identity.

The contracts under test (DESIGN.md, "Adaptive scheduling"):

* pure-policy invariants — grants never exceed queues or the budget,
  the exploration floor keeps every live arm sampled, UCB1 commits its
  exploit share to the top-scoring arm (winner-takes-round), and every
  allocation is a pure function of its inputs;
* ``SchedConfig(policy="static")`` without a budget disables the layer:
  the run is byte-identical to a pipeline built without any
  ``sched_config`` at all;
* static-with-budget and both adaptive policies are byte-identical
  across worker counts and across repeat runs, and reproduce the
  ``adaptive`` golden digests (``tests/golden.py``);
* a crash inside the ``policy.update.pre/post`` bracket resumes to
  streams byte-identical to an uninterrupted run;
* the persisted ``policy`` stream respects the session budget and
  records every arm the floor touched.
"""

from __future__ import annotations

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.browser.useragent import PROFILES
from repro.chaos import CrashDirective, CrashError, CrashPlan, install, reset
from repro.core.milking import MilkingConfig
from repro.errors import ConfigError
from repro.rng import rng_for
from repro.sched import (
    POLICIES,
    ArmStats,
    CrawlPolicy,
    EpsilonGreedyPolicy,
    SchedConfig,
    StaticPolicy,
    UCB1Policy,
    make_policy,
)
from repro.sched.evaluate import evaluate_policy
from repro.store import JsonlStore, MemoryStore, POLICY
from repro.store.base import STREAMS
from repro.store.persist import load_world

from tests.golden import (
    ADAPTIVE_BUDGETS,
    SEEDS,
    WORKERS,
    cached_streaming_digests,
    golden,
    run_key,
)

MILKING = MilkingConfig(duration_days=0.25, post_lookup_days=0.25)


@pytest.fixture(autouse=True)
def _pristine_crash_state():
    reset()
    yield
    reset()


def make_pipeline(seed: int, sched_config: SchedConfig | None = None):
    return SeacmaPipeline(
        build_world(WorldConfig.tiny(seed=seed)),
        milking_config=MILKING,
        sched_config=sched_config,
    )


def run_streams(
    seed: int, sched_config: SchedConfig | None, workers: int = 1
) -> dict[str, list[dict]]:
    """All store streams of one streaming run, for equality checks."""
    store = MemoryStore(run_id="sched")
    make_pipeline(seed, sched_config).run_streaming(
        store=store, with_milking=False, workers=workers
    )
    return {stream: store.read(stream) for stream in STREAMS}


# ------------------------------------------------------------ configuration


class TestSchedConfig:
    def test_defaults_are_not_adaptive(self):
        config = SchedConfig()
        assert not config.is_adaptive

    def test_budget_or_adaptive_policy_turns_the_layer_on(self):
        assert SchedConfig(session_budget=100).is_adaptive
        assert SchedConfig(policy="ucb1").is_adaptive
        assert SchedConfig(policy="egreedy").is_adaptive

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown crawl policy"):
            SchedConfig(policy="thompson")
        with pytest.raises(ConfigError, match="explore_floor"):
            SchedConfig(explore_floor=1.5)
        with pytest.raises(ConfigError, match="session_budget"):
            SchedConfig(session_budget=0)
        with pytest.raises(ConfigError, match="round_domains"):
            SchedConfig(round_domains=0)
        with pytest.raises(ConfigError, match="epsilon"):
            SchedConfig(epsilon=-0.1)

    def test_meta_round_trip(self):
        config = SchedConfig(
            policy="ucb1", session_budget=150, explore_floor=0.2
        )
        assert SchedConfig.from_meta(config.to_meta()) == config

    def test_make_policy_dispatch(self):
        assert isinstance(make_policy(SchedConfig()), StaticPolicy)
        egreedy = make_policy(SchedConfig(policy="egreedy", epsilon=0.3))
        assert isinstance(egreedy, EpsilonGreedyPolicy)
        assert egreedy.epsilon == 0.3
        ucb = make_policy(SchedConfig(policy="ucb1", ucb_coef=0.5))
        assert isinstance(ucb, UCB1Policy)
        assert ucb.coef == 0.5
        for name in POLICIES:
            assert isinstance(make_policy(SchedConfig(policy=name)), CrawlPolicy)


# -------------------------------------------------------------- allocation


QUEUES = {"adnet-a": 30, "adnet-b": 30, "adnet-c": 30, "adnet-d": 30}


def stats_with_means(**means: float) -> dict[str, ArmStats]:
    return {
        arm: ArmStats(pulls=10, sessions=30, reward=mean * 10)
        for arm, mean in means.items()
    }


def rng(policy: str, round_index: int = 5):
    return rng_for(0, "sched", policy, round_index)


class TestAllocationInvariants:
    @pytest.mark.parametrize("name", POLICIES)
    def test_grants_respect_queues_and_budget(self, name):
        policy = make_policy(SchedConfig(policy=name))
        stats = stats_with_means(**{arm: 0.5 for arm in QUEUES})
        for budget in (1, 7, 20, 120, 500):
            grants = policy.allocate(3, QUEUES, stats, budget, rng(name, 3))
            assert sum(grants.values()) <= budget
            assert sum(grants.values()) == min(budget, sum(QUEUES.values()))
            for arm, count in grants.items():
                assert 0 < count <= QUEUES[arm]

    @pytest.mark.parametrize("name", POLICIES)
    def test_allocation_is_pure(self, name):
        policy = make_policy(SchedConfig(policy=name))
        stats = stats_with_means(**{"adnet-a": 2.0, "adnet-b": 0.1})
        queues = {"adnet-a": 20, "adnet-b": 20}
        first = policy.allocate(4, queues, stats, 15, rng(name, 4))
        second = policy.allocate(4, queues, stats, 15, rng(name, 4))
        assert first == second

    @pytest.mark.parametrize("name", ("egreedy", "ucb1"))
    def test_floor_keeps_every_live_arm_sampled(self, name):
        policy = make_policy(
            SchedConfig(policy=name, explore_floor=0.25, epsilon=0.0)
        )
        # A huge lead for adnet-a: without the floor, exploit-only would
        # starve the rest.
        stats = stats_with_means(
            **{"adnet-a": 50.0, "adnet-b": 0.0, "adnet-c": 0.0, "adnet-d": 0.0}
        )
        grants = policy.allocate(6, QUEUES, stats, 16, rng(name, 6))
        assert all(grants.get(arm, 0) >= 1 for arm in QUEUES)

    def test_exhausted_arms_get_nothing(self):
        queues = {"adnet-a": 0, "adnet-b": 10}
        for name in POLICIES:
            policy = make_policy(SchedConfig(policy=name))
            grants = policy.allocate(0, queues, {}, 5, rng(name, 0))
            assert "adnet-a" not in grants
            if name == "ucb1":
                # A fully cold round only probes (floor + one grant per
                # never-pulled arm); the unspent share rolls over to
                # later, informed rounds.
                assert grants["adnet-b"] == 2
            else:
                assert grants["adnet-b"] == 5


class TestStaticPolicy:
    def test_is_ordered(self):
        assert StaticPolicy.ordered and not UCB1Policy.ordered
        assert not EpsilonGreedyPolicy.ordered

    def test_fills_canonical_order(self):
        grants = StaticPolicy().allocate(
            0, {"b": 5, "a": 5, "c": 5}, {}, 7, rng("static")
        )
        assert grants == {"a": 5, "b": 2}


class TestUCB1Policy:
    def test_cold_start_samples_every_arm_once(self):
        policy = UCB1Policy(explore_floor=0.0)
        grants = policy.allocate(0, QUEUES, {}, 4, rng("ucb1", 0))
        assert grants == {arm: 1 for arm in QUEUES}

    def test_exploit_share_commits_to_best_mean(self):
        policy = UCB1Policy(coef=0.25, explore_floor=0.25)
        stats = stats_with_means(
            **{"adnet-a": 0.1, "adnet-b": 3.0, "adnet-c": 0.2, "adnet-d": 0.1}
        )
        grants = policy.allocate(8, QUEUES, stats, 20, rng("ucb1", 8))
        # Floor = 5 grants round-robin; the remaining 15 all land on the
        # leader (winner-takes-round), so adnet-b dominates the round.
        assert grants["adnet-b"] >= 15
        assert max(grants, key=lambda arm: (grants[arm], arm)) == "adnet-b"

    def test_tied_means_commit_lexicographically(self):
        policy = UCB1Policy(explore_floor=0.0)
        stats = stats_with_means(**{arm: 0.0 for arm in QUEUES})
        grants = policy.allocate(2, QUEUES, stats, 10, rng("ucb1", 2))
        # Zero spread zeroes the bonus: no least-pulled chasing, the
        # round commits to the lexicographically first arm.
        assert grants == {"adnet-a": 10}


class TestEpsilonGreedy:
    def test_zero_epsilon_exploits_argmax_mean(self):
        policy = EpsilonGreedyPolicy(epsilon=0.0, explore_floor=0.0)
        stats = stats_with_means(**{"adnet-a": 0.5, "adnet-b": 2.5})
        grants = policy.allocate(
            1, {"adnet-a": 20, "adnet-b": 20}, stats, 12, rng("egreedy", 1)
        )
        assert grants == {"adnet-b": 12}

    def test_full_epsilon_spreads_by_rng(self):
        policy = EpsilonGreedyPolicy(epsilon=1.0, explore_floor=0.0)
        grants = policy.allocate(1, QUEUES, {}, 40, rng("egreedy", 1))
        assert sum(grants.values()) == 40
        assert len(grants) == len(QUEUES)  # uniform exploration touches all


# -------------------------------------------------- static byte identity


class TestStaticByteIdentity:
    def test_static_config_equals_no_config(self):
        """SchedConfig() is inert: byte-identical to the legacy path."""
        assert run_streams(3, None) == run_streams(3, SchedConfig())

    @pytest.mark.parametrize("workers", [2, 4])
    def test_static_budget_invariant_across_workers(self, workers):
        config = SchedConfig(session_budget=90)
        assert run_streams(3, config) == run_streams(3, config, workers=workers)

    def test_static_budget_walks_the_plan_prefix(self):
        """The budgeted static baseline crawls exactly the domains the
        unbudgeted plan would have crawled first, in the same order."""
        full = run_streams(3, None)
        capped = run_streams(3, SchedConfig(session_budget=60))
        full_order = [row["publisher_domain"] for row in full["interactions"]]
        capped_order = [
            row["publisher_domain"] for row in capped["interactions"]
        ]
        assert capped_order == full_order[: len(capped_order)]
        profiles = len(PROFILES)
        assert len(set(capped_order)) <= 60 // profiles


# ------------------------------------------------ adaptive determinism


@pytest.mark.parametrize("policy", sorted(ADAPTIVE_BUDGETS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_adaptive_run_matches_golden(policy, seed, workers):
    """Every stream, the trace, the metrics and the report of a
    policy-scheduled run are pinned in ``tests/golden_digests.json``."""
    expected = golden()["adaptive"][run_key(seed, workers, policy)]
    assert cached_streaming_digests(seed, workers, policy) == expected


class TestAdaptiveDeterminism:
    @pytest.mark.parametrize("name", ("egreedy", "ucb1"))
    def test_repeat_runs_identical(self, name):
        config = SchedConfig(policy=name, session_budget=90)
        assert run_streams(7, config) == run_streams(7, config)

    @pytest.mark.parametrize("name", ("egreedy", "ucb1"))
    def test_invariant_across_workers(self, name):
        config = SchedConfig(policy=name, session_budget=90)
        assert run_streams(7, config) == run_streams(7, config, workers=2)

    @pytest.mark.parametrize(
        "point", ["policy.update.pre", "policy.update.post"]
    )
    def test_crash_in_policy_update_resumes_byte_identical(
        self, tmp_path, point
    ):
        config = SchedConfig(policy="ucb1", session_budget=120)

        def jsonl_files(directory):
            return {
                path.name: path.read_bytes()
                for path in sorted(directory.glob("*.jsonl"))
            }

        reference_dir = tmp_path / "reference"
        store = JsonlStore(reference_dir, run_id="sched")
        make_pipeline(7, config).run_streaming(store=store, with_milking=False)
        store.close()
        reference = jsonl_files(reference_dir)

        crashed_dir = tmp_path / "crashed"
        token = tmp_path / "token"
        store = JsonlStore(crashed_dir, run_id="sched")
        install(CrashPlan(CrashDirective(point, occurrence=2), token_path=token))
        try:
            with pytest.raises(CrashError):
                make_pipeline(7, config).run_streaming(
                    store=store, with_milking=False
                )
        finally:
            install(None)
        store.close()
        assert token.exists(), "the scheduled crash never fired"

        store = JsonlStore.open(crashed_dir)
        world = load_world(store)
        # No sched_config here: resume must pick the stored meta up.
        SeacmaPipeline(world, milking_config=MILKING).resume_streaming(
            store, with_milking=False
        )
        store.close()
        assert jsonl_files(crashed_dir) == reference


# ----------------------------------------------------- the policy stream


class TestPolicyStream:
    @pytest.fixture(scope="class")
    def stream(self):
        store = MemoryStore(run_id="sched")
        make_pipeline(7, SchedConfig(policy="ucb1", session_budget=120)).run_streaming(
            store=store, with_milking=False
        )
        return store.read(POLICY)

    def test_rounds_and_stats_alternate(self, stream):
        kinds = [record["kind"] for record in stream]
        assert kinds == ["round", "stats"] * (len(stream) // 2)
        for record in stream:
            assert record["round"] == stream.index(record) // 2

    def test_budget_respected(self, stream):
        rounds = [r for r in stream if r["kind"] == "round"]
        domains = sum(len(r["domains"]) for r in rounds)
        profiles = len(PROFILES)
        assert domains * profiles <= 120
        for record in rounds:
            assert sum(record["allocation"].values()) == len(record["domains"])

    def test_round_domains_never_repeat(self, stream):
        seen: set[str] = set()
        for record in stream:
            if record["kind"] != "round":
                continue
            domains = set(record["domains"])
            assert not (domains & seen)
            seen |= domains

    def test_floor_pulls_every_arm(self, stream):
        final = [r for r in stream if r["kind"] == "stats"][-1]
        arms = final["arms"]
        profiles = len(PROFILES)
        assert len(arms) > 1
        for payload in arms.values():
            assert payload["pulls"] >= 1
            assert payload["candidates"] >= 0
            assert payload["sessions"] == payload["pulls"] * profiles

    def test_virtual_time_grid_is_chained(self, stream):
        rounds = [r for r in stream if r["kind"] == "round"]
        profiles = len(PROFILES)
        for earlier, later in zip(rounds, rounds[1:]):
            end = earlier["started_at"] + (
                len(earlier["domains"]) * profiles * earlier["time_step"]
            )
            assert later["started_at"] == pytest.approx(end)
            assert later["time_step"] == earlier["time_step"]


# ------------------------------------------------------------- evaluation


class TestEvaluation:
    def test_compare_policies_scores_every_policy(self):
        outcomes = {
            policy: evaluate_policy(
                WorldConfig.tiny(seed=3),
                SchedConfig(policy=policy, explore_floor=0.15, session_budget=60),
            )
            for policy in POLICIES
        }
        assert set(outcomes) == set(POLICIES)
        for outcome in outcomes.values():
            assert outcome.sessions <= 60
            assert outcome.se_per_session >= 0.0
            assert outcome.rounds >= 1
            assert outcome.pulls  # the final stats record was persisted

    def test_evaluate_is_deterministic(self):
        config = WorldConfig.tiny(seed=3)
        sched = SchedConfig(policy="ucb1", session_budget=60)
        assert evaluate_policy(config, sched) == evaluate_policy(config, sched)
