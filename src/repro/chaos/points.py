"""Named crash points: the instrumentation half of the chaos harness.

A *crash point* is a named location on a durability-critical write path
(store appends and truncations, shard segment emits, the streaming
checkpoint, feed publication, the parallel merge).  Instrumented code
calls :func:`crash_point` at each location; with no plan installed the
call is a single module-global check and costs nothing measurable.  When
a :class:`~repro.chaos.plan.CrashPlan` is active — installed in-process
by a test, or read from the ``SEACMA_CRASH_*`` environment by whatever
process (parent CLI or forked shard worker) reaches the point first —
the plan counts hits and aborts the process at its scheduled occurrence,
either by raising :class:`CrashError` (an in-process abort that unwinds
like any crash bug would) or with a real ``SIGKILL`` (nothing gets to
flush, close, or say goodbye).

The ``pre``/``mid``/``post`` suffixes bracket each write: ``pre`` dies
before any byte is written, ``mid`` dies with a torn (partial, flushed)
line on disk, ``post`` dies after the write is durable but before the
surrounding bookkeeping commits.  Together they cover every interleaving
a real crash can produce on a JSONL write path.
"""

from __future__ import annotations

import os
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.plan import CrashPlan


class CrashError(RuntimeError):
    """A scheduled in-process crash.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in the
    library is allowed to treat a simulated crash as a recoverable
    application error.  It unwinds through every layer (the CLI included)
    exactly like an unexpected bug would, so whatever the process managed
    to flush before dying is what recovery gets to work with.
    """


#: Exit status a shard worker dies with when a ``raise``-mode crash fires
#: inside it.  The executor treats this status — and any signal death —
#: as a worker death to recover from, not an application failure.
CRASH_EXIT_CODE = 70

#: Every named crash point, grouped by subsystem.  ``seeded_schedule``
#: enumerates these; the chaos CI matrix must cover each one.
STORE_POINTS = (
    "store.append.pre",
    "store.append.mid",
    "store.append.post",
    "store.truncate.pre",
    "store.truncate.mid",
    "store.truncate.post",
)
SEGMENT_POINTS = (
    "segment.emit.pre",
    "segment.emit.mid",
    "segment.emit.post",
)
PIPELINE_POINTS = ("checkpoint.persist",)
FEED_POINTS = ("feed.publish.pre", "feed.publish.post")
MERGE_POINTS = ("parallel.merge.pre", "parallel.merge.post")
#: The world materialization path: ``pre`` dies before a page is
#: derived, ``post`` after it entered the bounded cache.  Reached by any
#: run as the crawl reaches each publisher, including inside shard
#: workers.
WORLD_POINTS = ("world.materialize.pre", "world.materialize.post")
#: The session kernel's one commit per plan entry, after the entry's
#: last session: ``pre`` dies before the domain's sessions are committed
#: to the crawl dataset, ``post`` after they were but before the
#: domain's batch reaches the store.  Either way nothing of the domain
#: was persisted, so recovery re-crawls it whole from the last progress
#: marker.  Reached once per crawled domain, in whichever process runs
#: the domain.
SESSIONBATCH_POINTS = ("farm.sessionbatch.pre", "farm.sessionbatch.post")

CRASH_POINTS = (
    STORE_POINTS
    + SEGMENT_POINTS
    + PIPELINE_POINTS
    + FEED_POINTS
    + MERGE_POINTS
    + WORLD_POINTS
    + SESSIONBATCH_POINTS
)

#: Points that only execute during crash *recovery* (the store never
#: truncates during a healthy run); exercising them needs a priming
#: crash first.
RECOVERY_ONLY_POINTS = (
    "store.truncate.pre",
    "store.truncate.mid",
    "store.truncate.post",
)

ENV_POINT = "SEACMA_CRASH_POINT"
ENV_MODE = "SEACMA_CRASH_MODE"
ENV_TOKEN = "SEACMA_CRASH_TOKEN"

_UNSET = object()
_plan: object = _UNSET


def crash_point(name: str, flush: IO[str] | None = None) -> None:
    """Report that execution reached the crash point ``name``.

    ``flush`` is the file handle whose buffered bytes must reach the OS
    *before* the process dies, so a ``mid`` point leaves the same torn
    line on disk whether the abort is a raised :class:`CrashError` or a
    ``SIGKILL``.  It is flushed only when the point actually fires.
    """
    global _plan
    plan = _plan
    if plan is _UNSET:
        plan = _plan = _plan_from_env()
    if plan is None:
        return
    plan.reached(name, flush=flush)


def install(plan: "CrashPlan | None") -> None:
    """Install ``plan`` process-wide (tests); ``None`` disables chaos."""
    global _plan
    _plan = plan


def reset() -> None:
    """Forget the installed plan *and* the environment decision.

    The next :func:`crash_point` call re-reads ``SEACMA_CRASH_*`` — the
    hook tests use after monkeypatching the environment.
    """
    global _plan
    _plan = _UNSET


def active_plan() -> "CrashPlan | None":
    """The currently effective plan, resolving the environment lazily."""
    global _plan
    if _plan is _UNSET:
        _plan = _plan_from_env()
    return _plan  # type: ignore[return-value]


def _plan_from_env() -> "CrashPlan | None":
    spec = os.environ.get(ENV_POINT)
    if not spec:
        return None
    from repro.chaos.plan import CrashDirective, CrashPlan

    point, _, occurrence = spec.partition(":")
    directive = CrashDirective(
        point=point,
        occurrence=int(occurrence) if occurrence else 1,
        mode=os.environ.get(ENV_MODE, "raise"),
    )
    return CrashPlan(directive, token_path=os.environ.get(ENV_TOKEN) or None)
