"""Feed serving economics: build cost, payload sizes, HTTP throughput.

Uses the shared benchmark run's published feed history and records in
``results/BENCH_feed.json``:

* **snapshot build cost** — canonicalizing + hashing the latest (largest)
  entry set — and **payload-store build cost** — rendering every
  snapshot, gzipping the hot payloads, and compacting the delta chain
  (the one-time price of a lookup-only hot path);
* **payload sizes** — full snapshot vs the deltas clients actually pull:
  one poll behind, and a cold client catching up from v1.  Delta-chain
  compaction keeps the v1 delta a small fraction of the full payload
  (the CI bar is 10%) at the cost of a short chain of catch-up polls;
* **requests/sec, in-process** — :meth:`FeedServer.handle` on a mixed
  poll workload (fresh, stale, current clients);
* **requests/sec, HTTP** — the asyncio front-end under a pipelined
  keep-alive client on a realistic production mix (mostly conditional
  304s, some deltas, occasional cold fulls), plus client-side
  request–response latency percentiles measured unpipelined.

``SEACMA_FEED_RPS_FLOOR`` (requests/sec, default 1000) lets CI enforce a
throughput floor appropriate to its hardware; the committed JSON records
what the benchmark box actually achieved.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import time

from repro.feed import (
    AsyncFeedHTTPServer,
    FeedRequest,
    FeedServer,
    FeedSnapshot,
    percentile,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BUILD_REPS = 20
INPROCESS_ROUNDS = 5_000
#: Pipelined HTTP load: batches of requests written back-to-back on one
#: keep-alive connection, responses drained per batch.
PIPELINE_DEPTH = 100
HTTP_BATCHES = 60
#: Unpipelined request–response round trips for latency percentiles.
LATENCY_PROBES = 600

#: Production traffic mix per 100 requests: most polls find nothing new
#: (conditional 304), a few pull the latest delta, the odd cold client
#: pulls a full snapshot.
MIX_NOT_MODIFIED = 90
MIX_DELTA = 9
MIX_FULL = 1


def _request_bytes(latest) -> list[bytes]:
    etag = (
        b"GET /v1/feed HTTP/1.1\r\nHost: bench\r\nIf-None-Match: "
        + latest.content_hash.encode() + b"\r\n\r\n"
    )
    delta = (
        b"GET /v1/feed?since=" + str(latest.version - 1).encode()
        + b" HTTP/1.1\r\nHost: bench\r\n\r\n"
    )
    full = b"GET /v1/feed HTTP/1.1\r\nHost: bench\r\n\r\n"
    mix = [etag] * MIX_NOT_MODIFIED + [delta] * MIX_DELTA + [full] * MIX_FULL
    assert len(mix) == 100
    return mix


def _drain_responses(sock: socket.socket, expected: int) -> None:
    """Read exactly ``expected`` HTTP responses off a pipelined socket."""
    buffer = b""
    seen = 0
    while seen < expected:
        chunk = sock.recv(1 << 20)
        if not chunk:
            raise AssertionError("server closed mid-batch")
        buffer += chunk
        while seen < expected:
            head_end = buffer.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = buffer[:head_end]
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            if len(buffer) < head_end + 4 + length:
                break
            buffer = buffer[head_end + 4 + length:]
            seen += 1


def test_feed_serving(bench_run):
    snapshots = bench_run.feed
    assert snapshots, "benchmark run published no feed snapshots"
    latest = snapshots[-1]

    # Snapshot build: sort + canonical JSON + SHA-256 over the full set.
    entries = list(latest.entries)
    build_walls = []
    for _ in range(BUILD_REPS):
        started = time.perf_counter()
        rebuilt = FeedSnapshot.build(
            version=latest.version,
            published_at=latest.published_at,
            entries=entries,
        )
        build_walls.append(time.perf_counter() - started)
    assert rebuilt.content_hash == latest.content_hash
    build_seconds = min(build_walls)

    # Payload-store build: render every snapshot once, build and gzip
    # the tip's answers over the compacted delta chain.  Paid once at
    # server startup.
    started = time.perf_counter()
    server = FeedServer(snapshots)
    store_build_seconds = time.perf_counter() - started
    store = server.payloads

    # Payload sizes: what one poll actually transfers.
    full_size = server.handle(FeedRequest()).size
    full_gzip = len(store.answer(None, None, store.tip).gzip_payload or b"")
    one_behind = server.handle(FeedRequest(client_version=latest.version - 1))
    from_v1 = server.handle(FeedRequest(client_version=1))

    # Catch-up chain from v1: how many polls to converge, and the
    # worst single delta any stale client can be served.
    hops, version = 0, 1
    while version != latest.version:
        version = store.answer(version, None, store.tip).version
        hops += 1
        assert hops <= len(snapshots), "delta chain failed to converge"
    worst_stale = max(
        store.answer(snapshot.version, None, store.tip).size
        for snapshot in snapshots[:-1]
    )

    # In-process throughput: the protocol hot path, no transport.
    requests = [
        FeedRequest(),
        FeedRequest(client_version=latest.version - 1),
        FeedRequest(client_version=max(1, latest.version // 2)),
        FeedRequest(
            client_version=latest.version, client_hash=latest.content_hash
        ),
    ]
    served = 0
    started = time.perf_counter()
    for _ in range(INPROCESS_ROUNDS):
        for request in requests:
            server.handle(request)
            served += 1
    inprocess_rps = served / (time.perf_counter() - started)

    # HTTP throughput + latency against the asyncio front-end.
    mix = _request_bytes(latest)
    batch = b"".join(mix)
    with AsyncFeedHTTPServer(FeedServer(snapshots)) as http_server:
        address = ("127.0.0.1", http_server.port)
        with socket.create_connection(address, timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Warm-up batch (connection setup, first-touch costs).
            sock.sendall(batch)
            _drain_responses(sock, len(mix))
            started = time.perf_counter()
            for _ in range(HTTP_BATCHES):
                sock.sendall(batch)
                _drain_responses(sock, len(mix))
            http_wall = time.perf_counter() - started
            http_requests = HTTP_BATCHES * len(mix)
            http_rps = http_requests / http_wall

            # Latency: strict request–response round trips, no pipelining.
            latencies_ms = []
            for index in range(LATENCY_PROBES):
                wire = mix[index % len(mix)]
                started = time.perf_counter()
                sock.sendall(wire)
                _drain_responses(sock, 1)
                latencies_ms.append((time.perf_counter() - started) * 1000.0)
            latencies_ms.sort()

    payload = {
        "benchmark": "feed_serving",
        "feed": {
            "versions": len(snapshots),
            "latest_entries": len(latest),
        },
        "snapshot_build_seconds": round(build_seconds, 6),
        "payload_store_build_seconds": round(store_build_seconds, 6),
        "payload_bytes": {
            "full": full_size,
            "full_gzip": full_gzip,
            "delta_one_behind": one_behind.size,
            "delta_from_v1": from_v1.size,
            "delta_from_v1_fraction_of_full": round(from_v1.size / full_size, 4),
            "worst_stale_delta": worst_stale,
            "one_behind_status": one_behind.status,
            "from_v1_status": from_v1.status,
            "checkpoint_interval": store.checkpoint_interval,
            "catchup_hops_from_v1": hops,
        },
        "inprocess": {
            "requests": served,
            "requests_per_second": round(inprocess_rps, 1),
        },
        "http": {
            "engine": "asyncio",
            "pipeline_depth": PIPELINE_DEPTH,
            "workload_mix": {
                "not_modified": MIX_NOT_MODIFIED,
                "delta": MIX_DELTA,
                "full": MIX_FULL,
            },
            "requests": http_requests,
            "requests_per_second": round(http_rps, 1),
            "latency_ms": {
                "probes": len(latencies_ms),
                "p50": round(percentile(latencies_ms, 0.50), 4),
                "p95": round(percentile(latencies_ms, 0.95), 4),
                "p99": round(percentile(latencies_ms, 0.99), 4),
            },
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_feed.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # ------------------------------------------------------- regression bars
    floor = float(os.environ.get("SEACMA_FEED_RPS_FLOOR", "1000"))
    assert http_rps >= floor, (
        f"asyncio front-end served only {http_rps:.0f} req/s "
        f"(floor {floor:.0f})"
    )
    assert one_behind.status == "delta" and one_behind.size < full_size, (
        "a one-behind client should pull a small delta"
    )
    # Delta-chain compaction: catching up from v1 must cost a small
    # delta (≤10% of full), not a payload the size of the snapshot.
    assert from_v1.status == "delta"
    assert from_v1.size <= 0.10 * full_size, (
        f"since=v1 delta is {from_v1.size} B vs full {full_size} B — "
        "delta-chain compaction regressed"
    )
    assert worst_stale <= 0.10 * full_size, (
        "some stale client pulls a delta above the 10%-of-full bar"
    )
