"""Golden digests: the micro world's every output byte, pinned.

``golden_digests.json`` holds, for the micro world (8 publishers, 6
campaigns, 0.5-day milking) at seeds 7 and 13 with one and two crawl
workers, the SHA-256 of every store stream, of the canonical sim-lane
trace (one ``pipeline.ingest`` span per finished domain with
interactions), of the Prometheus metrics text and of the generated
report of a traced streaming run; the batch ``run()`` report at seed 7
is pinned too.  The micro digests were recorded from the scalar session kernel over an
eagerly built world, so a run that reproduces them is byte-identical to
those reference paths.  ``tests/test_sessionbatch.py`` and
``tests/test_lazy_world.py`` check the current code against them: any
change to session simulation, screenshot hashing, world
materialization, sharding or the store codec that moves a single output
byte fails there.

Re-record (only for an intended output change, and say why)::

    PYTHONPATH=src python tests/golden.py --record
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.analysis.reportgen import generate_report
from repro.core.milking import MilkingConfig
from repro.store import JsonlStore
from repro.telemetry import Telemetry, use
from repro.telemetry.export import canonical_trace_bytes

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)
SEEDS = (7, 13)
WORKERS = (1, 2)


def micro_config(seed: int) -> WorldConfig:
    return WorldConfig(seed=seed, n_publishers=8, n_campaigns=6)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def stream_digests(store_dir: Path) -> dict[str, str]:
    """SHA-256 of every store stream file, keyed by file name."""
    return {
        path.name: sha256(path.read_bytes())
        for path in sorted(store_dir.glob("*.jsonl"))
    }


def streaming_digests(store_dir: Path, seed: int, workers: int) -> dict:
    """Digests of one traced streaming run of the micro world."""
    world = build_world(micro_config(seed))
    pipeline = SeacmaPipeline(world, milking_config=MILKING)
    telemetry = Telemetry(world.clock)
    with use(telemetry):
        result = pipeline.run_streaming(
            store=JsonlStore(store_dir), workers=workers
        )
    return {
        "streams": stream_digests(store_dir),
        "trace": sha256(canonical_trace_bytes(telemetry)),
        "metrics": sha256(telemetry.metrics.to_prometheus()),
        "report": sha256(generate_report(world, result)),
    }


def batch_report_digest(seed: int) -> str:
    world = build_world(micro_config(seed))
    result = SeacmaPipeline(world, milking_config=MILKING).run()
    return sha256(generate_report(world, result))


def run_key(seed: int, workers: int) -> str:
    return f"seed{seed}-workers{workers}"


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@functools.cache
def cached_streaming_digests(seed: int, workers: int) -> dict:
    """:func:`streaming_digests` of a run in a scratch store, computed once."""
    with tempfile.TemporaryDirectory() as scratch:
        return streaming_digests(Path(scratch) / "store", seed, workers)


@functools.cache
def cached_batch_report_digest(seed: int) -> str:
    return batch_report_digest(seed)


def record() -> dict:
    """Compute every golden digest from the current code."""
    streaming = {
        run_key(seed, workers): cached_streaming_digests(seed, workers)
        for seed in SEEDS
        for workers in WORKERS
    }
    return {
        "streaming": streaming,
        "batch_report": {"seed7": cached_batch_report_digest(7)},
    }

if __name__ == "__main__":
    digests = record()
    if "--record" in sys.argv[1:]:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    else:
        json.dump(digests, sys.stdout, indent=2, sort_keys=True)
        print()
