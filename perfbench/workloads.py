"""The benchmark's workloads: generated inputs and fixed settings.

Everything the program sees is built here from the workload seed: a
``WorldConfig`` and, for milking, a ``MilkingConfig``.  The rate ladder
of the traced milk run's feed serving lives here too.  ``BENCHMARK.json`` repeats
these settings in each workload's ``why`` line; change both together.
"""

from __future__ import annotations

#: Publishers in the crawl worlds.  The crawl derives ~0.75 pages per
#: publisher, so 3,200 publishers derive ~2,400 pages: more than the
#: 2,048-entry page cache holds, so eviction runs on every seed.
CRAWL_PUBLISHERS = 3_200
#: The milk world has the pytest bench world's shape at 1,000 publishers:
#: at 400, campaign discovery is partial and the milking work varied by
#: -23%/+16% around its median across seeds 0-9; at 1,000 every seed
#: discovers nearly every campaign and the work varies by a few percent.
#: Two days of milking (not the bench world's seven) keep an iteration
#: near 8 s, so a run takes the fastest of several.
MILK_PUBLISHERS = 1_000
MILK_FAULT_RATE = 0.05
MILK_DAYS = 2.0

#: Open-loop rates (requests per second) of the feed-serving ladder in
#: the traced milk run; request kinds are drawn from a ``FeedClientFleet``
#: replay over the milk store's feed history.  The top rates lie past
#: the server's saturation (p99 passed the limit at 30k to 90k req/s on
#: 2 vCPUs), so ``feed.max_rps`` can move both ways.
FEED_RATES = {
    "low": 2_000,
    "mid": 10_000,
    "high": 30_000,
    "r60k": 60_000,
    "r90k": 90_000,
}
#: A ladder rate is sustained when its p99 latency stays under this.
FEED_LATENCY_LIMIT_MS = 5.0

#: Pipeline worlds with committed store digests (``golden.json``): a
#: pipeline run uses world seed ``--seed % SEED_POOL``, so every run is
#: checked against a committed record.
SEED_POOL = 64
#: Pipeline iterations per run, at least; more while ``--seconds`` last.
#: Times are reported as the fastest sample of a run: the work is
#: deterministic, and on a shared host the noise only ever adds time, in
#: bursts of a few seconds, so the minimum moves less from run to run
#: than the median (IQR/median over groups of 3-5 crawl iterations:
#: 0.05-0.07 for the minimum, 0.09-0.11 for the median).
MIN_ITERATIONS = 3

WORKLOADS = ("crawl", "crawl-sharded", "milk")


def crawl_world(seed: int):
    """The crawl world (the worldscale bench's shape at 3,200 publishers)."""
    from repro import WorldConfig

    return WorldConfig(
        seed=seed,
        n_publishers=CRAWL_PUBLISHERS,
        n_campaigns=12,
        crawl_window_days=1.0,
        max_code_domains=40,
        n_advertisers=50,
    )


def bench_world(seed: int, n_publishers: int, fault_rate: float = 0.0):
    """The shape of the pytest bench world (``benchmarks/conftest.py``)."""
    from repro import WorldConfig

    return WorldConfig(
        seed=seed,
        n_publishers=n_publishers,
        n_campaigns=20,
        crawl_window_days=2.0,
        max_code_domains=60,
        n_advertisers=80,
        n_parking_providers=4,
        n_stock_sets=2,
        fault_rate=fault_rate,
    )


def pipeline_inputs(workload: str, seed: int) -> dict:
    """World config and ``run_streaming`` arguments for one workload."""
    from repro.core.milking import MilkingConfig

    if workload in ("crawl", "crawl-sharded"):
        return {
            "world": crawl_world(seed),
            "milking": None,
            "workers": 2 if workload == "crawl-sharded" else 1,
        }
    if workload == "milk":
        return {
            "world": bench_world(seed, MILK_PUBLISHERS, MILK_FAULT_RATE),
            "milking": MilkingConfig(duration_days=MILK_DAYS, post_lookup_days=MILK_DAYS),
            "workers": 1,
        }
    raise ValueError(f"unknown pipeline workload {workload!r}")
