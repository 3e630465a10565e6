"""Seeded crash schedules.

A :class:`CrashDirective` names one abort — which point, which hit of
that point, and how to die.  A :class:`CrashPlan` arms a single
directive in the current process (chaos runs crash once, recover, and
compare; multi-crash scenarios are sequences of single-crash phases).

:func:`seeded_schedule` is the deterministic enumerator the chaos suite
and CI matrix run from: for a given seed it derives, per crash point,
*which* occurrence to kill — early hits, mid-run hits, and hits near the
measured end of a tiny run — so different seeds stress different
interleavings while any given (seed, point) pair is fully reproducible.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import IO, Iterator

from repro.chaos.points import (
    CRASH_POINTS,
    RECOVERY_ONLY_POINTS,
    CrashError,
)
from repro.rng import rng_for

#: Crash modes: ``raise`` aborts in-process with :class:`CrashError`
#: (buffers already flushed by the point fire), ``kill`` delivers a real
#: ``SIGKILL`` to the current process.
MODES = ("raise", "kill")

#: Candidate occurrence numbers per point family, spanning the measured
#: hit counts of a tiny streamed run (~2100 store appends, ~90
#: checkpoints, ~13 feed publications, dozens of segment emits per
#: shard).  Candidates past the actual count simply never fire, so the
#: schedule only draws from the plausible prefix of each list.
_OCCURRENCE_POOLS: dict[str, tuple[int, ...]] = {
    "store.append": (1, 4, 25, 150, 700, 1600),
    "store.truncate": (1,),
    "segment.emit": (1, 5, 30),
    "checkpoint.persist": (1, 5, 40),
    "feed.publish": (1, 3, 9),
    "parallel.merge": (1,),
    # Reversal answers from the record index (no materialization), so
    # builds now happen as the crawl reaches each publisher — a tiny
    # run still materializes ~90 pages, past every depth here.
    "world.materialize": (1, 15, 75),
    # One hit per crawled domain (the kernel resolves every domain,
    # even ad-free ones); a tiny run crawls ~40+ domains.
    "farm.sessionbatch": (1, 6, 30),
}


def _pool_for(point: str) -> tuple[int, ...]:
    family = point.rsplit(".", 1)[0] if point.count(".") > 1 else point
    return _OCCURRENCE_POOLS.get(family) or _OCCURRENCE_POOLS[point]


@dataclass(frozen=True)
class CrashDirective:
    """One scheduled abort: die at the Nth hit of ``point`` via ``mode``."""

    point: str
    occurrence: int = 1
    mode: str = "raise"

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point: {self.point!r}")
        if self.occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def recovery_only(self) -> bool:
        return self.point in RECOVERY_ONLY_POINTS

    def to_env(self, token_path: str | os.PathLike[str]) -> dict[str, str]:
        """Environment variables that arm this directive in a child tree."""
        from repro.chaos import points

        return {
            points.ENV_POINT: f"{self.point}:{self.occurrence}",
            points.ENV_MODE: self.mode,
            points.ENV_TOKEN: os.fspath(token_path),
        }


class CrashPlan:
    """Counts hits of one crash point and aborts at the scheduled one.

    ``token_path`` makes the directive fire exactly once across an
    entire process tree and any number of resumed phases: firing first
    claims the token file with an atomic ``open(path, "x")``, and a
    process that finds the token already claimed stands down.  Without
    that, a respawned shard worker (or a resumed run) inheriting the
    same environment would crash again at the same point, forever.
    """

    def __init__(
        self,
        directive: CrashDirective,
        token_path: str | os.PathLike[str] | None = None,
    ) -> None:
        self.directive = directive
        self.token_path = os.fspath(token_path) if token_path else None
        self.hits = 0
        self.fired = False

    def reached(self, name: str, flush: IO[str] | None = None) -> None:
        """Record a hit of ``name``; abort if this is the scheduled one."""
        if self.fired or name != self.directive.point:
            return
        self.hits += 1
        if self.hits < self.directive.occurrence:
            return
        if not self._claim_token():
            self.fired = True  # someone else already crashed this scenario
            return
        self.fired = True
        if flush is not None:
            flush.flush()
        if self.directive.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise CrashError(
            f"scheduled crash at {name} (occurrence {self.hits})"
        )

    def _claim_token(self) -> bool:
        if self.token_path is None:
            return True
        try:
            fd = os.open(self.token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.write(fd, f"{self.directive.point}:{self.directive.occurrence}\n".encode())
        os.close(fd)
        return True


def seeded_schedule(seed: int) -> Iterator[CrashDirective]:
    """Enumerate one directive per (crash point, mode), occurrences seeded.

    The occurrence drawn for a point is a deterministic function of
    ``(seed, point, mode)``, so two chaos runs with the same seed kill
    the same hits, while different seeds probe different depths of the
    run.
    """
    for point in CRASH_POINTS:
        pool = _pool_for(point)
        for mode in MODES:
            rng = rng_for(seed, "chaos", point, mode)
            yield CrashDirective(
                point=point, occurrence=pool[rng.randrange(len(pool))], mode=mode
            )
