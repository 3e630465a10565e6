"""Benchmark-side span tracing around the program's public calls.

The program is not instrumented: every span is recorded by a wrapper
that this module installs over a callable, at the name the callers look
up (a module global such as ``repro.core.pipeline.reverse_to_publishers``
or a class attribute such as ``repro.net.network.Internet.fetch``).

Each span is kept in memory as four parallel arrays (name id, start,
end, parent index) and written once, in binary, by :meth:`Tracer.dump`.
Self time — a span's duration minus the part its child spans cover — is
accumulated online from a span stack, so the per-layer table costs no
second pass over the spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name call/total/self aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        #: name -> [calls, inclusive seconds, self seconds, items]
        self.totals: dict[str, list[float]] = {}
        # Open spans: [index, seconds covered by child spans].
        self._stack: list[list[Any]] = []
        self._restores: list[Callable[[], None]] = []
        #: Targets that no longer exist in the program (reported, not fatal).
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0, 0]
        return ident

    def call(self, name: str, func: Callable, args, kwargs, items: int = 1):
        """Run ``func`` inside one span named ``name``."""
        ident = self._name_id(name)
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(ident)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        started = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            ended = _clock()
            stack.pop()
            duration = ended - started
            self.span_start[index] = started
            self.span_end[index] = ended
            if stack:
                stack[-1][1] += duration
            total = self.totals[name]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            total[3] += items

    # --------------------------------------------------------------- patching

    def wrap(
        self,
        target: str,
        name: str,
        items: Callable[..., int] | None = None,
    ) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in spans ``name``.

        ``items`` maps the call's arguments to a work count (frames for a
        batched hash, say); by default each call counts one item.  A
        target the program no longer has is recorded in :attr:`missing`.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        self._name_id(name)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        if items is None:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                return tracer.call(name, func, args, kwargs)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                return tracer.call(name, func, args, kwargs, items(*args, **kwargs))

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._restores.append(lambda: setattr(owner, attr, raw))

    def replace(self, target: str, value: Any) -> None:
        """Install ``value`` at ``module:attr`` (restored by :meth:`unwrap_all`)."""
        module_name, _, attr = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            raw = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        setattr(module, attr, value)
        self._restores.append(lambda: setattr(module, attr, raw))

    def unwrap_all(self) -> None:
        while self._restores:
            self._restores.pop()()

    # ---------------------------------------------------------------- output

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def items(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0, 0))[3])

    def dump(self, path: Path) -> Path:
        """Write every span once: a JSON header plus four binary arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i", "start:d", "end:d", "parent:i"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
                column.tofile(handle)
        return path
