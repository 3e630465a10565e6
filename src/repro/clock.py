"""Virtual time for the simulated measurement infrastructure.

The paper's milking experiment runs for 14 wall-clock days with 15-minute
milking rounds and 30-minute blacklist lookups.  We reproduce the same
scheduling logic against a :class:`SimClock`, so a two-week experiment runs
in seconds while preserving every ordering decision.

Time is measured in seconds since an arbitrary epoch (0.0 at world creation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0


class SimClock:
    """A monotonically advancing virtual clock.

    >>> clock = SimClock()
    >>> clock.advance(90 * MINUTE)
    >>> clock.now()
    5400.0
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before the epoch")
        self._now = float(start)

    def now(self) -> float:
        """Return the current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to an absolute ``timestamp``."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot rewind clock from {self._now} to {timestamp}"
            )
        self._now = timestamp

    def seek(self, timestamp: float) -> None:
        """Set the clock to an absolute ``timestamp``, rewinds allowed.

        The crawl scheduler places every session at its plan-derived
        start time; a shard worker visiting positions 2, 5, 3 of the
        canonical plan (its own shard, plus intra-session drift) must be
        able to move the clock to each session's absolute slot.  Only
        the farm's scheduling uses this — event queues and milking keep
        the monotonic :meth:`advance_to`.
        """
        if timestamp < 0:
            raise ValueError("cannot seek before the epoch")
        self._now = float(timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(t={self._now:.1f}s)"


@dataclass(order=True)
class _ScheduledEvent:
    when: float
    sequence: int
    action: Callable[[float], None] = field(compare=False)


class EventScheduler:
    """A deterministic event queue driven by a :class:`SimClock`.

    Events scheduled for the same instant fire in insertion order, which
    keeps multi-source experiments (milking rounds interleaved with GSB
    lookups) reproducible.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._queue: list[_ScheduledEvent] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._queue)

    def schedule_at(self, when: float, action: Callable[[float], None]) -> None:
        """Schedule ``action(now)`` to run at absolute time ``when``."""
        if when < self.clock.now():
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._queue, _ScheduledEvent(when, self._sequence, action))
        self._sequence += 1

    def schedule_after(self, delay: float, action: Callable[[float], None]) -> None:
        """Schedule ``action(now)`` to run ``delay`` seconds from now."""
        self.schedule_at(self.clock.now() + delay, action)

    def schedule_every(
        self,
        interval: float,
        action: Callable[[float], None],
        *,
        start: float | None = None,
        until: float | None = None,
    ) -> None:
        """Schedule a recurring ``action`` every ``interval`` seconds.

        The recurrence stops once the next firing would land strictly after
        ``until`` (if given).
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        first = self.clock.now() if start is None else start

        def fire(now: float) -> None:
            action(now)
            nxt = now + interval
            if until is None or nxt <= until:
                self.schedule_at(nxt, fire)

        self.schedule_at(first, fire)

    def run_until(self, deadline: float) -> int:
        """Run all events up to and including ``deadline``.

        Returns the number of events executed.  The clock is left at
        ``deadline``.
        """
        executed = 0
        while self._queue and self._queue[0].when <= deadline:
            event = heapq.heappop(self._queue)
            self.clock.advance_to(event.when)
            event.action(event.when)
            executed += 1
        self.clock.advance_to(max(deadline, self.clock.now()))
        return executed
