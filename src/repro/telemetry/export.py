"""Trace and metrics exporters.

Three formats, one directory:

* ``spans.jsonl`` — one JSON record per span (sorted keys).  Sim-clock
  fields are deterministic; wall-clock fields live under the segregated
  ``wall`` key (and worker provenance under ``host``), so stripping
  those two keys yields the canonical comparable trace.
* ``trace.json`` — Chrome ``trace_event`` JSON, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.  Timestamps are
  *sim-clock microseconds*: the timeline renders the virtual experiment
  (days of milking in one view), with the canonical pipeline and the
  shard-execution lanes as separate processes.
* ``metrics.prom`` — Prometheus text exposition of the registry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.telemetry.tracer import SIM_LANE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.context import Telemetry

#: File names written by :func:`write_trace_dir`.
SPANS_FILE = "spans.jsonl"
CHROME_TRACE_FILE = "trace.json"
METRICS_FILE = "metrics.prom"


def _dumps(record: Any) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


# ----------------------------------------------------------- canonical view


def canonical_records(telemetry: "Telemetry") -> list[dict[str, Any]]:
    """The deterministic trace: sim-lane spans, wall/host fields dropped."""
    return [
        record
        for record in telemetry.tracer.records(include_wall=False)
        if record["lane"] == SIM_LANE
    ]


def canonical_trace_bytes(telemetry: "Telemetry") -> bytes:
    """The canonical trace as comparable bytes.

    Byte-identical across runs and ``--workers`` counts for the same
    (world config, pipeline arguments) — the determinism tests' oracle.
    """
    return ("\n".join(_dumps(record) for record in canonical_records(telemetry)) + "\n").encode()


# ------------------------------------------------------------------- JSONL


def write_spans_jsonl(path: Path, telemetry: "Telemetry") -> None:
    """One record per span: local spans in begin order, then adopted
    worker spans."""
    with path.open("w", encoding="utf-8") as handle:
        for record in telemetry.tracer.records(include_wall=True):
            handle.write(_dumps(record))
            handle.write("\n")


def read_spans_jsonl(path: Path) -> list[dict[str, Any]]:
    """Inverse of :func:`write_spans_jsonl`."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ------------------------------------------------------------ Chrome trace


def chrome_trace_events(telemetry: "Telemetry") -> list[dict[str, Any]]:
    """Chrome ``trace_event`` records (phase ``X`` spans, ``i`` events).

    The canonical pipeline renders as pid 1; shard-lane execution as
    pid 2 with one thread row per shard (tid 1 = in-process, tid
    2 + *k* = worker *k*).  ``ts``/``dur`` are sim-clock microseconds.
    """
    events: list[dict[str, Any]] = [
        _metadata_event(1, "pipeline (sim clock)"),
        _metadata_event(2, "crawl execution (shards)"),
    ]
    for record in telemetry.tracer.records(include_wall=True):
        if record["lane"] == SIM_LANE:
            pid, tid = 1, 1
        else:
            shard = record.get("host", {}).get("shard")
            pid, tid = 2, 1 if shard is None else 2 + shard
        start = record["sim"]["start"]
        duration = max(0.0, record["sim"]["end"] - start)
        events.append(
            {
                "name": record["name"],
                "cat": record["lane"],
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    **record["attrs"],
                    "span_id": record["span_id"],
                    "status": record["status"],
                },
            }
        )
        for event in record["events"]:
            events.append(
                {
                    "name": event["name"],
                    "cat": record["lane"],
                    "ph": "i",
                    "ts": round(event["sim_time"] * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": dict(event["attrs"]),
                }
            )
    return events


def _metadata_event(pid: int, name: str) -> dict[str, Any]:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def write_chrome_trace(path: Path, telemetry: "Telemetry") -> None:
    payload = {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "sim", "unit": "virtual microseconds"},
    }
    path.write_text(_dumps(payload) + "\n", encoding="utf-8")


# ------------------------------------------------------------------ bundle


def write_trace_dir(directory: Path, telemetry: "Telemetry") -> dict[str, Path]:
    """Write the full bundle; returns ``{kind: path}`` for reporting."""
    directory.mkdir(parents=True, exist_ok=True)
    spans = directory / SPANS_FILE
    chrome = directory / CHROME_TRACE_FILE
    metrics = directory / METRICS_FILE
    write_spans_jsonl(spans, telemetry)
    write_chrome_trace(chrome, telemetry)
    metrics.write_text(telemetry.metrics.to_prometheus(), encoding="utf-8")
    return {"spans": spans, "chrome_trace": chrome, "metrics": metrics}
