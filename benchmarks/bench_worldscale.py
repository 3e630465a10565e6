"""World-scale streaming runs: wall-clock and peak RSS per population.

Runs the full streaming pipeline (crawl + analysis, no milking) against
worlds of increasing population — 150, 1,000, 10,000 and 93,000
publishers by default — and records wall-clock time, ms per publisher
and the process-wide peak RSS for each, in
``results/BENCH_worldscale.json``.  Each rung also records
``live_rngs``: the :class:`random.Random` objects still alive (counted
through :mod:`gc`) once the run is done and its world is still held.
Per-domain streams die with their crawl scope, so the count is the
world's own streams and must not grow with the population.  Likewise
``live_interactions``: the :class:`~repro.core.crawler.AdInteraction`
objects alive after the run, with its result still held.  The store is
the dataset — no stage keeps a crawl record — so the count must not grow
with the population either (it is zero).

``ru_maxrss`` is a per-process high-water mark that never goes down, so
each population is measured in its own subprocess (this module re-execs
itself with ``--child N``); the parent only collects the JSON
lines the children print.

Override the population ladder with a comma-separated
``WORLDSCALE_POPULATIONS`` environment variable (the CI smoke job and
laptop runs use a shorter ladder than the committed full result; CI pins
``150,1000,10000`` so the 93k rung stays a local/committed measurement).
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import tempfile
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DEFAULT_POPULATIONS = (150, 1_000, 10_000, 93_000)


def _populations() -> tuple[int, ...]:
    override = os.environ.get("WORLDSCALE_POPULATIONS")
    if not override:
        return DEFAULT_POPULATIONS
    return tuple(int(part) for part in override.split(",") if part.strip())


def _child(n_publishers: int) -> dict:
    """One streamed run at the given population, self-measured."""
    from repro import SeacmaPipeline, WorldConfig, build_world
    from repro.core.crawler import AdInteraction
    from repro.store import JsonlStore

    config = WorldConfig(
        seed=9,
        n_publishers=n_publishers,
        n_campaigns=12,
        crawl_window_days=1.0,
        max_code_domains=40,
        n_advertisers=50,
    )
    started = time.perf_counter()
    world = build_world(config)
    build_seconds = time.perf_counter() - started
    pipeline = SeacmaPipeline(world)
    with tempfile.TemporaryDirectory() as scratch:
        result = pipeline.run_streaming(
            store=JsonlStore(pathlib.Path(scratch) / "store"),
            with_milking=False,
        )
        wall_seconds = time.perf_counter() - started
        interactions = len(result.crawl.interactions)
    gc.collect()
    live = gc.get_objects()
    live_rngs = sum(isinstance(obj, random.Random) for obj in live)
    live_interactions = sum(isinstance(obj, AdInteraction) for obj in live)
    del live
    stats = world.publisher_directory.stats
    population = n_publishers + config.resolved_new_publishers
    return {
        "publishers": n_publishers,
        "population": population,
        "build_seconds": round(build_seconds, 3),
        "wall_seconds": round(wall_seconds, 3),
        "ms_per_publisher": round(1000 * wall_seconds / population, 3),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "live_rngs": live_rngs,
        "live_interactions": live_interactions,
        "sessions": result.crawl.sessions,
        "interactions": interactions,
        "se_campaigns": len(result.discovery.seacma_campaigns),
        "materialization": stats.as_dict(),
    }


def _measure_in_subprocess(n_publishers: int) -> dict:
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(n_publishers)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"worldscale child ({n_publishers} publishers) failed:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def test_world_scale(save_artifact):
    populations = _populations()
    runs = [_measure_in_subprocess(n) for n in populations]
    for run in runs:
        assert run["interactions"] > 0
        # Reversal answers from the record index, so only crawled
        # publishers materialize — but the crawl must still reach most
        # of the population, and the process must never retain all the
        # pages it builds (the bounded-memory bar).
        distinct = run["materialization"]["distinct_publishers"]
        assert 0 < distinct <= run["population"]
        # Seed-network reversal covers roughly 70% of the population
        # (the rest embed only discoverable networks and are left to
        # the expansion list); the crawl must reach at least half.
        assert distinct >= 0.5 * run["publishers"]

    # Per-domain state dies with its crawl scope: the random streams
    # left alive are the world's own, no more at 10k publishers than at
    # 150.  A per-domain stream kept past its domain adds one per
    # crawled publisher.
    first = runs[0]
    for run in runs:
        assert run["live_rngs"] <= first["live_rngs"], (
            f"{run['live_rngs']} random streams alive after "
            f"{run['population']} publishers, {first['live_rngs']} after "
            f"{first['population']}: per-domain state outlives its crawl scope"
        )
    # The store is the dataset: no stage keeps a crawl record alive, so
    # no more interactions are alive at 10k publishers than at 150.  A
    # stage that keeps its records adds one per triggered ad.
    for run in runs:
        assert run["live_interactions"] <= first["live_interactions"], (
            f"{run['live_interactions']} interactions alive after "
            f"{run['population']} publishers, {first['live_interactions']} "
            f"after {first['population']}: a stage keeps crawl records"
        )

    largest = runs[-1]
    payload = {
        "benchmark": "worldscale",
        "mode": "streaming, no milking",
        "runs": runs,
        "largest_population": largest["population"],
        "largest_peak_rss_mb": round(largest["peak_rss_kb"] / 1024, 1),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_worldscale.json"
    if path.exists():
        # Historical record of the deleted scalar kernel, kept as is.
        history = json.loads(path.read_text()).get("kernel_speedup")
        if history is not None:
            payload["kernel_speedup"] = history
    path.write_text(json.dumps(payload, indent=2) + "\n")
    save_artifact(
        "worldscale",
        "\n".join(
            f"{run['population']:>6} publishers: {run['wall_seconds']:7.2f}s wall, "
            f"{run['peak_rss_kb'] / 1024:7.1f} MiB peak RSS, "
            f"{run['interactions']} ads ({run['ms_per_publisher']} ms/publisher)"
            for run in runs
        ),
    )
    if len(runs) >= 2:
        # Bounded memory at scale: RSS must grow far slower than the
        # population.  Retaining every page would grow roughly linearly
        # (~25 KB/publisher); the world's page cache caps the resident
        # page set, so a 10x population may cost at most ~3x the memory.
        first, last = runs[0], runs[-1]
        population_ratio = last["population"] / first["population"]
        rss_ratio = last["peak_rss_kb"] / first["peak_rss_kb"]
        assert rss_ratio < max(3.0, population_ratio / 3), (
            f"peak RSS grew {rss_ratio:.1f}x over a {population_ratio:.0f}x "
            "population increase — the page cache is not bounding memory"
        )


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(_child(int(sys.argv[2]))))
    else:  # pragma: no cover - convenience entry
        raise SystemExit("run via pytest, or with --child N")
