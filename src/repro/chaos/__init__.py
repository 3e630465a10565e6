"""Deterministic crash injection and recovery verification.

The chaos harness closes the loop the first five PRs opened: the store,
the sharded crawl, the streaming checkpoint and the feed each claim
crash safety, so this package kills the process at every named point on
those write paths and proves the recovered run is byte-identical to an
uninterrupted one.

Three layers:

* :mod:`repro.chaos.points` — the instrumentation: named
  :func:`~repro.chaos.points.crash_point` call sites in the store,
  executor, pipeline and feed publisher (free when no plan is armed);
* :mod:`repro.chaos.plan` — the schedule: seeded, reproducible
  :class:`~repro.chaos.plan.CrashDirective` enumeration and the
  :class:`~repro.chaos.plan.CrashPlan` that counts hits and aborts;
* :mod:`repro.chaos.runner` — the driver: :class:`~repro.chaos.runner.ChaosRunner`
  crashes real ``seacma`` child processes, recovers them, and diffs
  every store stream, the feed, and the offline report against an
  uninterrupted reference run.
"""

from repro.chaos.plan import (
    MODES,
    CrashDirective,
    CrashPlan,
    seeded_schedule,
)
from repro.chaos.points import (
    CRASH_EXIT_CODE,
    CRASH_POINTS,
    RECOVERY_ONLY_POINTS,
    WORLD_POINTS,
    CrashError,
    active_plan,
    crash_point,
    install,
    reset,
)
from repro.chaos.runner import ChaosReport, ChaosRunner, PhaseResult

__all__ = [
    "CRASH_EXIT_CODE",
    "CRASH_POINTS",
    "MODES",
    "RECOVERY_ONLY_POINTS",
    "WORLD_POINTS",
    "ChaosReport",
    "ChaosRunner",
    "CrashDirective",
    "CrashError",
    "CrashPlan",
    "PhaseResult",
    "active_plan",
    "crash_point",
    "install",
    "reset",
    "seeded_schedule",
]
