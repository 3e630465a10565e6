"""Record the store digests every run is checked against.

    python3 perfbench/record_golden.py [--workloads crawl,milk] [--seeds 0-63] [--jobs 2]

Runs one iteration per workload and world seed and writes its
per-stream SHA-256 digests to ``perfbench/golden.json``.  Pipeline runs
use world seed ``--seed`` modulo ``SEED_POOL``, so the default records
every world a run can use.  The digests
are the program's byte-identity contract: regenerate them only for a
change that is meant to alter what the pipeline writes, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR  # noqa: E402
from pipeline import GOLDEN, spawn_child  # noqa: E402
from workloads import SEED_POOL  # noqa: E402


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="crawl,milk")
    parser.add_argument("--seeds", default=f"0-{SEED_POOL - 1}", help="e.g. 0-63 or 1,2,5")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    tasks = [
        (workload, seed)
        for workload in args.workloads.split(",")
        for seed in _seeds(args.seeds)
    ]

    def one(task: tuple[str, int]) -> tuple[str, int, dict]:
        workload, seed = task
        store = OUT_DIR / f"golden-{workload}-{seed}"
        return workload, seed, spawn_child(workload, seed, store)["digests"]

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for workload, seed, digests in pool.map(one, tasks):
            golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
            golden.setdefault(workload, {})[str(seed)] = digests
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {len(digests)} streams")
    return 0


if __name__ == "__main__":
    sys.exit(main())
