"""Paths and helpers shared by the benchmark's modules."""

from __future__ import annotations

import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes: stores, span files.  Listed in .gitignore.
OUT_DIR = ROOT / ".perfbench_out"


class BenchError(Exception):
    """A failure of the benchmark itself (not an output mismatch)."""


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_env() -> dict[str, str]:
    """The environment of every program process: ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env
