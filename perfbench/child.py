"""One fresh-interpreter iteration of a pipeline workload.

Run by ``run.py`` as ``python child.py --workload W --seed N --store DIR
[--trace] [--spans FILE]``.  Prints one JSON line: the ``perf_counter``
instant the world was ready (the parent subtracts its spawn instant, so
interpreter start-up counts in set-up), the run's wall time, per-stream
SHA-256 digests of the store, peak RSS, failure counts and, with
``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _store_digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*.jsonl"))
    }


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import_started = time.perf_counter()
    from repro import SeacmaPipeline, build_world
    from repro.store import JsonlStore

    import_s = time.perf_counter() - import_started
    from workloads import pipeline_inputs

    inputs = pipeline_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.LayerTracer(args.workload)
    build_started = time.perf_counter()
    world = build_world(inputs["world"])
    ready = time.perf_counter()
    out = {"ready_at": ready, "import_s": import_s, "build_s": ready - build_started}

    with_milking = inputs["milking"] is not None
    call = time.perf_counter()
    pipeline = SeacmaPipeline(world, milking_config=inputs["milking"])
    store = JsonlStore(args.store)
    result = pipeline.run_streaming(
        store, with_milking=with_milking, workers=inputs["workers"]
    )
    store.close()
    done = time.perf_counter()

    stats = result.fault_stats.as_dict() if result.fault_stats is not None else {}
    sessions = result.crawl.sessions
    lost = stats.get("sessions_lost", 0)
    if with_milking:
        attempted = sessions + world.internet.fetch_count
        failed = lost + stats.get("failed_fetches", 0)
    else:
        attempted, failed = sessions, lost
    out.update(
        {
            "run_s": done - call,
            "digests": _store_digests(args.store),
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
            "children_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
            "attempted": attempted,
            "failed": failed,
        }
    )
    if tracer is not None:
        import layers

        out["layers"] = layers.collect(tracer, world, result, args.store, out)
        tracer.unwrap_all()
        if args.spans is not None:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
