"""The pipeline workloads: ``crawl``, ``crawl-sharded`` and ``milk``.

Each iteration is a fresh interpreter running ``child.py``; this module
spawns them, checks their store digests and reduces their reports to
metrics.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, OUT_DIR, ROOT, BenchError, child_env
from layers import PER_LAYER
from workloads import MIN_ITERATIONS, SEED_POOL

#: Store digests per workload and world seed, committed (``record_golden.py``).
GOLDEN = BENCH_DIR / "golden.json"
#: Seconds one child may take before the run is abandoned.
CHILD_TIMEOUT = 150


def spawn_child(
    workload: str,
    seed: int,
    store: Path,
    *,
    trace: bool = False,
    spans: Path | None = None,
    keep: bool = False,
) -> dict:
    """One fresh-interpreter pipeline iteration; returns its report.

    The child's store is removed afterwards unless ``keep``.
    """
    if store.exists():
        shutil.rmtree(store)
    command = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--store",
        str(store),
    ]
    if trace:
        command.append("--trace")
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            command,
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=CHILD_TIMEOUT,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child exceeded {CHILD_TIMEOUT}s") from exc
    finally:
        if not keep:
            shutil.rmtree(store, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned
    return report


def _digest_key(workload: str) -> str:
    # Worker count must not change a byte: both crawl workloads share one record.
    return "crawl" if workload == "crawl-sharded" else workload


def golden_digests(workload: str, world_seed: int) -> dict:
    """The committed store digests of ``workload`` at ``world_seed``."""
    found = json.loads(GOLDEN.read_text()).get(_digest_key(workload), {}).get(str(world_seed))
    if found is None:
        raise BenchError(
            f"golden.json has no {_digest_key(workload)} digests for world seed {world_seed}"
        )
    return found


def check_digests(reference: dict, reports: list[dict]) -> int:
    """Count the reports whose store digests differ from ``reference``."""
    bad = 0
    for report in reports:
        if report["digests"] != reference:
            bad += 1
            diff = sorted(
                name
                for name in set(reference) | set(report["digests"])
                if reference.get(name) != report["digests"].get(name)
            )
            print(f"CHECK FAILED: store streams differ from golden.json: {diff}")
    return bad


def pipeline_peak_rss(report: dict, workload: str) -> float:
    if workload == "crawl-sharded":
        return max(report["peak_rss_mb"], report["children_peak_rss_mb"])
    return report["peak_rss_mb"]


def timed(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    """Timed iterations of a pipeline workload: at least ``MIN_ITERATIONS``,
    then more until ``seconds`` have passed.  Times are the fastest
    sample, peak RSS the median one."""
    world_seed = seed % SEED_POOL
    reference = golden_digests(workload, world_seed)
    deadline = time.perf_counter() + seconds
    reports = []
    while len(reports) < MIN_ITERATIONS or time.perf_counter() < deadline:
        reports.append(spawn_child(workload, world_seed, scratch / "store"))
    bad = check_digests(reference, reports)
    metrics = {
        "setup_s": min(report["setup_s"] for report in reports),
        "run_s": min(report["run_s"] for report in reports),
        "peak_rss_mb": statistics.median(
            pipeline_peak_rss(report, workload) for report in reports
        ),
    }
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    print(
        f"{workload}: world seed {world_seed}, {len(reports)} iterations; run_s: "
        + " ".join(f"{report['run_s']:.3f}" for report in reports)
        + "; setup_s: "
        + " ".join(f"{report['setup_s']:.3f}" for report in reports)
    )
    return {
        "correct": bad == 0,
        "attempted": attempted,
        "failed": attempted if bad else failed,
        "metrics": metrics,
    }


def trace(workload: str, seed: int, scratch: Path) -> dict:
    """One untraced and one traced iteration; per-layer metrics.

    The traced iteration's store is left at ``scratch / "store"``.
    """
    world_seed = seed % SEED_POOL
    reference = golden_digests(workload, world_seed)
    untraced = spawn_child(workload, world_seed, scratch / "store")
    spans = OUT_DIR / f"spans-{workload}-{world_seed}.bin"
    traced = spawn_child(
        workload, world_seed, scratch / "store", trace=True, spans=spans, keep=True
    )
    bad = check_digests(reference, [untraced, traced])
    if untraced["digests"] != traced["digests"]:
        print("CHECK FAILED: traced store digests differ from untraced")
    layers = traced["layers"]
    missing = layers.pop("trace.unwrapped")
    if missing:
        print(f"note: targets no longer in the program (their layers read 0): {missing}")
    if workload == "crawl-sharded":
        print(
            "note: crawl-sharded traces the parent process only; shard workers "
            "run untraced and their session layers read 0"
        )
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update(layers)
    metrics["trace.untraced_run_s"] = untraced["run_s"]
    metrics["trace.overhead_pct"] = 100.0 * (traced["run_s"] / untraced["run_s"] - 1.0)
    print(f"spans written to {spans.relative_to(ROOT)}")
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    return {
        "correct": bad == 0,
        "attempted": attempted,
        "failed": attempted if bad else failed,
        "metrics": metrics,
    }
