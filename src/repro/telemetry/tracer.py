"""Nested span tracing on two clocks at once.

Every :class:`Span` carries *two* time ranges:

* **sim** — virtual seconds from the world's :class:`~repro.clock.SimClock`.
  These are a pure function of (world config, pipeline arguments), so the
  sim fields of the canonical span stream are byte-identical across runs
  and across ``--workers`` counts.  They are what the determinism tests
  compare.
* **wall** — ``time.perf_counter()`` seconds.  These tell the operator
  where real time went and are different on every run; exporters keep
  them in a segregated ``wall`` sub-object so deterministic comparison
  just drops that key.

Spans live in one of two *lanes*:

* ``sim`` — the canonical pipeline tree (stages, per-domain crawl
  batches in plan order, milking rounds).  Emitted only from the
  deterministic parent-process flow, never from inside a shard worker,
  so the lane is invariant under ``--workers``.
* ``shard`` — operational spans from wherever the crawl sessions
  actually ran: the farm's per-domain drive loop (shard 0 when
  in-process, shard *k* inside worker *k*) and the parallel merge.
  Their shape legitimately depends on the worker count, so they are
  excluded from determinism comparisons — like wall time, they describe
  *this* execution, not the canonical result.

Span ids count per lane (``sim:1``, ``sim:2``, … / ``shard:1``, …) so
operational spans never shift the canonical ids.  Worker-process spans
are adopted into the parent tracer after the merge, re-namespaced as
``s<shard>:<id>``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Canonical lane: deterministic sim-clock spans from the parent pipeline.
SIM_LANE = "sim"
#: Operational lane: execution-dependent spans (farm drive, shard merge).
SHARD_LANE = "shard"

_LANES = (SIM_LANE, SHARD_LANE)


class Span:
    """One traced operation: name, attributes, events, two time ranges."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "lane",
        "attrs",
        "sim_start",
        "sim_end",
        "wall_start",
        "wall_end",
        "events",
        "status",
        "error",
    )

    def __init__(
        self,
        span_id: str,
        parent_id: str | None,
        name: str,
        lane: str,
        attrs: dict[str, Any],
        sim_start: float,
        wall_start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.lane = lane
        self.attrs = attrs
        self.sim_start = sim_start
        self.sim_end = sim_start
        self.wall_start = wall_start
        self.wall_end = wall_start
        self.events: list[dict[str, Any]] = []
        self.status = "ok"
        self.error: str | None = None

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start

    def add_event(
        self, name: str, sim_time: float, attrs: dict[str, Any] | None = None
    ) -> None:
        """Attach a point-in-time event to this span."""
        self.events.append(
            {"name": name, "sim_time": sim_time, "attrs": attrs or {}}
        )

    def mark_error(self, error: BaseException | str) -> None:
        """Tag the span as failed, keeping a one-line description."""
        self.status = "error"
        if isinstance(error, BaseException):
            self.error = f"{type(error).__name__}: {error}"
        else:
            self.error = str(error)

    def to_record(self, include_wall: bool = True) -> dict[str, Any]:
        """JSON-compatible dump; ``include_wall=False`` keeps only the
        deterministic fields."""
        record: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "lane": self.lane,
            "attrs": self.attrs,
            "sim": {"start": self.sim_start, "end": self.sim_end},
            "events": self.events,
            "status": self.status,
        }
        if self.error is not None:
            record["error"] = self.error
        if include_wall:
            record["wall"] = {
                "start": self.wall_start,
                "end": self.wall_end,
                "dur": self.wall_duration,
            }
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.span_id} {self.name!r} lane={self.lane} "
            f"sim={self.sim_start:.1f}..{self.sim_end:.1f})"
        )


class SpanTracer:
    """Collects spans for one process, in start order.

    ``sim_now`` supplies the virtual clock (usually ``world.clock.now``);
    wall time always comes from :func:`time.perf_counter`.
    """

    def __init__(self, sim_now: Callable[[], float]) -> None:
        self._sim_now = sim_now
        #: Spans begun in this process, in begin order (open spans included).
        self.spans: list[Span] = []
        #: Finished span *records* adopted from worker processes.
        self.adopted: list[dict[str, Any]] = []
        self._stack: list[Span] = []
        self._next_id = {lane: 1 for lane in _LANES}

    # --------------------------------------------------------------- spans

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def begin(
        self,
        name: str,
        attrs: dict[str, Any] | None = None,
        lane: str = SIM_LANE,
        sim_start: float | None = None,
    ) -> Span:
        """Open a span as a child of the current one (see lane rules)."""
        span = Span(
            span_id=self._allocate_id(lane),
            parent_id=self._parent_id(lane),
            name=name,
            lane=lane,
            attrs=dict(attrs) if attrs else {},
            sim_start=self._sim_now() if sim_start is None else sim_start,
            wall_start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close a span; the sim end never precedes the start even when
        the farm scheduler seeks the clock backwards between sessions."""
        span.sim_end = max(span.sim_start, self._sim_now())
        span.wall_end = time.perf_counter()
        if span in self._stack:
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            if self._stack:
                self._stack.pop()

    @contextmanager
    def span(
        self,
        name: str,
        attrs: dict[str, Any] | None = None,
        lane: str = SIM_LANE,
        sim_start: float | None = None,
    ) -> Iterator[Span]:
        """``with``-scoped span; exceptions tag it as an error and re-raise."""
        span = self.begin(name, attrs, lane, sim_start)
        try:
            yield span
        except BaseException as error:
            span.mark_error(error)
            raise
        finally:
            self.finish(span)

    def complete_span(
        self,
        name: str,
        sim_start: float,
        sim_end: float,
        attrs: dict[str, Any] | None = None,
        lane: str = SIM_LANE,
    ) -> Span:
        """Record an already-finished operation with explicit sim times.

        Used where the work itself happened elsewhere (a crawl batch
        produced by the farm or a worker process) but the canonical trace
        entry belongs to the parent's plan-order stream.
        """
        wall = time.perf_counter()
        span = Span(
            span_id=self._allocate_id(lane),
            parent_id=self._parent_id(lane),
            name=name,
            lane=lane,
            attrs=dict(attrs) if attrs else {},
            sim_start=sim_start,
            wall_start=wall,
        )
        span.sim_end = max(sim_start, sim_end)
        span.wall_end = wall
        self.spans.append(span)
        return span

    def event(
        self, name: str, attrs: dict[str, Any] | None = None
    ) -> bool:
        """Attach an event to the innermost open span.

        Returns whether a span was open to receive it; events outside any
        span are dropped (their counts still land in the metrics).
        """
        span = self.current
        if span is None:
            return False
        span.add_event(name, self._sim_now(), attrs)
        return True

    # --------------------------------------------------------- shard merge

    def adopt_shard_records(
        self, records: list[dict[str, Any]], shard: int
    ) -> None:
        """Merge one worker's finished span records into this tracer.

        Ids are re-namespaced per shard (``s<shard>:<id>``) so adopted
        trees stay internally consistent without colliding with the
        parent's, and every record is forced onto the shard lane — a
        worker's whole execution is operational detail by definition.
        """

        def rename(span_id: str | None) -> str | None:
            return None if span_id is None else f"s{shard}:{span_id}"

        for record in records:
            adopted = dict(record)
            adopted["span_id"] = rename(record["span_id"])
            adopted["parent_id"] = rename(record.get("parent_id"))
            adopted["lane"] = SHARD_LANE
            adopted["host"] = {"shard": shard}
            self.adopted.append(adopted)

    # ------------------------------------------------------------ plumbing

    def records(self, include_wall: bool = True) -> list[dict[str, Any]]:
        """Every span as a JSON-compatible record: local spans in begin
        order, then adopted worker spans in adoption order."""
        local = [span.to_record(include_wall=include_wall) for span in self.spans]
        if not include_wall:
            adopted = []
            for record in self.adopted:
                trimmed = dict(record)
                trimmed.pop("wall", None)
                trimmed.pop("host", None)
                adopted.append(trimmed)
        else:
            adopted = list(self.adopted)
        return local + adopted

    def _allocate_id(self, lane: str) -> str:
        if lane not in _LANES:
            raise ValueError(f"unknown span lane: {lane!r}")
        number = self._next_id[lane]
        self._next_id[lane] = number + 1
        return f"{lane}:{number}"

    def _parent_id(self, lane: str) -> str | None:
        """The parent for a new span on ``lane``.

        Operational spans nest under whatever is innermost, but a
        canonical span's parent must itself be canonical — otherwise the
        sim tree would reference ids that differ per worker count.
        """
        if lane == SIM_LANE:
            for span in reversed(self._stack):
                if span.lane == SIM_LANE:
                    return span.span_id
            return None
        return self._stack[-1].span_id if self._stack else None
