"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (settings in ``workloads.py``, reasons in ``BENCHMARK.json``):

* ``crawl`` — ``run_streaming`` into a ``JsonlStore``, no milking, one
  worker, over a world whose crawl derives more pages than the page
  cache holds;
* ``crawl-sharded`` — the same world and call with ``workers=2``;
* ``milk`` — the pytest bench world's shape at 1,000 publishers with
  2-day milking, feed publishing and a 5% injected-fault rate.

With ``--trace 0`` the command times the workload and prints every
end-to-end metric; with ``--trace 1`` it prints every per-layer metric
plus the tracing overhead.  The traced ``milk`` run also serves the feed
its store holds with ``seacma feed serve`` and offers it the request mix
of a ``FeedClientFleet`` replay at fixed rates.  Each iteration runs in a
fresh interpreter, so import cost counts in ``setup_s`` and peak RSS is
per iteration.

Every run checks outputs: store streams must hash to the digests
committed for the world seed in ``golden.json`` (``crawl-sharded``
against ``crawl``'s digests), and every feed response must be
byte-equal to the server's answer for that request.  A failed check
counts every operation of the run as failed and exits 1.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, SRC, BenchError  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics, printed by every workload, with their units.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    scratch = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        import pipeline

        if not args.trace:
            result = pipeline.timed(args.workload, args.seed, args.seconds, scratch)
        else:
            result = pipeline.trace(args.workload, args.seed, scratch)
            if args.workload == "milk":
                import feedserve

                feed = feedserve.trace(scratch / "store", args.seed, args.seconds, scratch)
                result["metrics"].update(feed["metrics"])
                result["correct"] = result["correct"] and feed["correct"]
                result["attempted"] += feed["attempted"]
                result["failed"] += feed["failed"]
                if not result["correct"]:
                    result["failed"] = result["attempted"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(result["metrics"])
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
