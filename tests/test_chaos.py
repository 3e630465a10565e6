"""The chaos harness: scheduled crashes, recovery, byte identity.

Three layers, cheapest first:

* unit tests for the crash-point machinery itself — directives, plans,
  the one-shot token, the ``SEACMA_CRASH_*`` environment protocol, the
  seeded schedule;
* fast in-process crash/recovery tests: install a
  :class:`~repro.chaos.CrashPlan`, run the streaming pipeline until the
  scheduled :class:`~repro.chaos.CrashError` fires, reopen the store,
  resume, and require the recovered ``*.jsonl`` streams byte-identical
  to an uninterrupted run's — plus a worker-``SIGKILL`` respawn case
  where the parent survives, so the canonical (sim-lane) trace must be
  identical too;
* the full subprocess matrix (``slow``): a :class:`ChaosRunner` drives
  the real CLI through every named crash point in both modes — the same
  sweep the ``chaos`` CI job runs.
"""

from __future__ import annotations

import itertools
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.chaos import (
    CRASH_EXIT_CODE,
    CRASH_POINTS,
    MODES,
    RECOVERY_ONLY_POINTS,
    ChaosRunner,
    CrashDirective,
    CrashError,
    CrashPlan,
    active_plan,
    crash_point,
    install,
    reset,
    seeded_schedule,
)
from repro.chaos import points as chaos_points
from repro.core.milking import MilkingConfig
from repro.store import JsonlStore
from repro.store.persist import load_world
from repro.telemetry import Telemetry, use as use_telemetry
from repro.telemetry.export import canonical_trace_bytes

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)
#: Points only shard workers and the parallel merge reach: unreachable
#: with ``workers=1``.
PARALLEL_ONLY_POINTS = chaos_points.SEGMENT_POINTS + chaos_points.MERGE_POINTS

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _pristine_crash_state():
    """No test leaks an installed plan (or a cached env decision)."""
    reset()
    yield
    reset()


def make_pipeline(seed: int) -> SeacmaPipeline:
    return SeacmaPipeline(
        build_world(WorldConfig.tiny(seed=seed)), milking_config=MILKING
    )


def stream_files(directory: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("*.jsonl"))
    }


# --------------------------------------------------------------------- units


class TestCrashDirective:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown crash point"):
            CrashDirective("store.append.sideways")

    def test_occurrence_and_mode_validated(self):
        with pytest.raises(ValueError):
            CrashDirective("store.append.pre", occurrence=0)
        with pytest.raises(ValueError):
            CrashDirective("store.append.pre", mode="segfault")

    def test_scope_properties(self):
        assert CrashDirective("store.truncate.mid").recovery_only
        assert not CrashDirective("checkpoint.persist").recovery_only

    def test_env_round_trip(self, tmp_path, monkeypatch):
        directive = CrashDirective("feed.publish.pre", occurrence=3, mode="kill")
        for key, value in directive.to_env(tmp_path / "token").items():
            monkeypatch.setenv(key, value)
        reset()
        plan = active_plan()
        assert plan is not None
        assert plan.directive == directive
        assert plan.token_path == str(tmp_path / "token")

    def test_no_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(chaos_points.ENV_POINT, raising=False)
        reset()
        assert active_plan() is None
        crash_point("store.append.pre")  # must be a no-op, not a crash


class TestCrashPlan:
    def test_fires_at_scheduled_occurrence_only(self):
        plan = CrashPlan(CrashDirective("checkpoint.persist", occurrence=3))
        install(plan)
        crash_point("checkpoint.persist")
        crash_point("store.append.pre")  # other points don't count
        crash_point("checkpoint.persist")
        with pytest.raises(CrashError, match="occurrence 3"):
            crash_point("checkpoint.persist")
        assert plan.fired
        crash_point("checkpoint.persist")  # fired plans never fire again

    def test_token_claimed_exactly_once(self, tmp_path):
        token = tmp_path / "token"
        first = CrashPlan(CrashDirective("checkpoint.persist"), token_path=token)
        with pytest.raises(CrashError):
            first.reached("checkpoint.persist")
        assert token.exists()
        second = CrashPlan(CrashDirective("checkpoint.persist"), token_path=token)
        second.reached("checkpoint.persist")  # stands down, no crash
        assert second.fired

    def test_mid_point_flushes_before_dying(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        install(CrashPlan(CrashDirective("store.append.mid")))
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"torn": tr')
            with pytest.raises(CrashError):
                crash_point("store.append.mid", flush=handle)
        assert path.read_bytes() == b'{"torn": tr'

    def test_kill_mode_delivers_sigkill(self, tmp_path):
        code = (
            "from repro.chaos import CrashDirective, CrashPlan, install\n"
            "from repro.chaos.points import crash_point\n"
            "install(CrashPlan(CrashDirective('checkpoint.persist', mode='kill')))\n"
            "crash_point('checkpoint.persist')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": SRC},
            capture_output=True,
        )
        assert proc.returncode == -9


class TestSeededSchedule:
    def test_covers_every_point_and_mode(self):
        directives = list(seeded_schedule(7))
        assert {(d.point, d.mode) for d in directives} == set(
            itertools.product(CRASH_POINTS, MODES)
        )
        assert len(directives) == len(CRASH_POINTS) * len(MODES)

    def test_same_seed_same_schedule(self):
        assert list(seeded_schedule(7)) == list(seeded_schedule(7))

    def test_different_seeds_probe_different_occurrences(self):
        baseline = list(seeded_schedule(7))
        assert any(
            list(seeded_schedule(seed)) != baseline for seed in range(5)
        )

    def test_point_scope_constants_are_within_the_catalog(self):
        assert set(RECOVERY_ONLY_POINTS) <= set(CRASH_POINTS)


# ----------------------------------------------- in-process crash/recovery


FAST_DIRECTIVES = [
    CrashDirective("checkpoint.persist", occurrence=3),
    CrashDirective("store.append.mid", occurrence=40),
    CrashDirective("feed.publish.pre", occurrence=2),
    CrashDirective("feed.publish.post", occurrence=1),
    # The session kernel's per-domain commit (one hit per crawled
    # domain).
    CrashDirective("farm.sessionbatch.pre", occurrence=4),
    CrashDirective("farm.sessionbatch.post", occurrence=2),
]


@pytest.fixture(scope="module")
def reference_streams(tmp_path_factory) -> dict[str, bytes]:
    directory = tmp_path_factory.mktemp("chaos-ref") / "store"
    store = JsonlStore(directory, run_id="chaos")
    make_pipeline(5).run_streaming(store=store)
    store.close()
    return stream_files(directory)


class TestInProcessCrashRecovery:
    @pytest.mark.parametrize(
        "directive", FAST_DIRECTIVES, ids=lambda d: f"{d.point}:{d.occurrence}"
    )
    def test_resume_after_crash_is_byte_identical(
        self, tmp_path, directive, reference_streams
    ):
        directory = tmp_path / "store"
        token = tmp_path / "token"
        store = JsonlStore(directory, run_id="chaos")
        install(CrashPlan(directive, token_path=token))
        try:
            with pytest.raises(CrashError):
                make_pipeline(5).run_streaming(store=store)
        finally:
            install(None)
        store.close()
        assert token.exists()

        store = JsonlStore.open(directory)
        world = load_world(store)
        SeacmaPipeline(world, milking_config=MILKING).resume_streaming(store)
        store.close()
        assert stream_files(directory) == reference_streams
        assert not (directory / "intent.log").exists()
        assert not list(directory.glob("*.jsonl.tmp"))

    def test_crash_between_batch_rows_and_marker_rolls_back(self, tmp_path):
        # The torn batch's interactions must vanish on reopen (the intent
        # rollback), not linger for resume's trim-and-recrawl path.
        directory = tmp_path / "store"
        store = JsonlStore(directory, run_id="chaos")
        install(CrashPlan(CrashDirective("checkpoint.persist", occurrence=4)))
        try:
            with pytest.raises(CrashError):
                make_pipeline(5).run_streaming(store=store)
        finally:
            install(None)
        store.close()

        reopened = JsonlStore.open(directory)
        recovery = reopened.last_recovery
        assert recovery.intent_rolled_back.startswith("batch:")
        assert recovery.records_rolled_back
        progress = reopened.read("progress")
        rows = reopened.count("interactions")
        assert progress[-1]["interaction_rows"] == rows
        reopened.close()


class TestWorkerKillRespawn:
    def _run(self, directory: Path, seed: int = 3) -> tuple[dict, bytes]:
        store = JsonlStore(directory, run_id="kill")
        pipeline = make_pipeline(seed)
        telemetry = Telemetry(pipeline.world.clock)
        with use_telemetry(telemetry):
            pipeline.run_streaming(store=store, workers=2, with_milking=False)
        store.close()
        return stream_files(directory), canonical_trace_bytes(telemetry)

    def test_sigkilled_worker_respawns_byte_identical(
        self, tmp_path, monkeypatch, caplog
    ):
        reference, reference_trace = self._run(tmp_path / "reference")

        token = tmp_path / "token"
        directive = CrashDirective("segment.emit.post", occurrence=4, mode="kill")
        for key, value in directive.to_env(token).items():
            monkeypatch.setenv(key, value)
        reset()  # pick the armed environment up in this (parent) process
        with caplog.at_level(logging.WARNING, logger="repro.parallel.executor"):
            killed, killed_trace = self._run(tmp_path / "killed")
        monkeypatch.delenv(chaos_points.ENV_POINT)
        reset()

        assert token.exists(), "the scheduled worker kill never fired"
        assert any("respawning" in record.message for record in caplog.records)
        assert killed == reference
        # The parent survived, so even the canonical trace must match.
        assert killed_trace == reference_trace


# --------------------------------------------------- full subprocess matrix


@pytest.mark.slow
class TestChaosMatrix:
    """Every named crash point, both modes, against the real CLI.

    Two seeds × two worker counts, paired to bound wall-clock: each
    configuration sweeps the full schedule its worker count can reach.
    This is the ``chaos`` CI job's hard bar.
    """

    @pytest.mark.parametrize(
        ("seed", "workers"), [(7, 1), (11, 2)], ids=["seed7-w1", "seed11-w2"]
    )
    def test_every_point_recovers_byte_identical(self, tmp_path, seed, workers):
        runner = ChaosRunner(tmp_path, seed=seed, workers=workers, days=2.0)
        reports = []
        for directive in seeded_schedule(seed):
            if directive.point in PARALLEL_ONLY_POINTS and workers == 1:
                continue
            reports.append(runner.run_case(directive))
        failures = [r.describe() for r in reports if not r.identical]
        assert not failures, "\n".join(failures)
        fired = sum(1 for r in reports if r.fired)
        # Most scheduled occurrences must actually be reached; a sweep
        # that silently degenerates to uninterrupted runs proves nothing.
        assert fired >= int(0.75 * len(reports)), (
            f"only {fired}/{len(reports)} directives fired"
        )

    def test_fsync_mode_survives_store_kills(self, tmp_path):
        runner = ChaosRunner(tmp_path, seed=7, workers=1, days=2.0, fsync=True)
        for directive in (
            CrashDirective("store.append.mid", occurrence=150, mode="kill"),
            CrashDirective("checkpoint.persist", occurrence=5, mode="kill"),
        ):
            report = runner.run_case(directive)
            assert report.identical, report.describe()

    def test_worker_kill_exit_code_is_recoverable(self):
        assert CRASH_EXIT_CODE == 70  # documented in docs/operations.md
