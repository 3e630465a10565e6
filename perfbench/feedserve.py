"""Feed serving in the traced ``milk`` run: ``seacma feed serve`` under load.

The store the traced milk iteration wrote holds the feed history.  Set-up,
none of it timed as load:

1. this process opens the history with ``FeedServer``, replays
   ``FeedClientFleet`` over it to get the request mix, and asks
   ``FeedServer.handle`` for the answer to every request kind;
2. the server is spawned with its default engine;
3. one request of each kind is sent and its response parsed and checked
   against ``FeedServer.handle``'s answer (status, body, version, feed
   status, ETag, encoding); the exact bytes become that kind's reference.

The fixed-rate ladder is then offered open-loop
(``loadgen.run_open_loop``).  Every response must equal its kind's
reference byte for byte.
"""

from __future__ import annotations

import json
import random
import re
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import loadgen
from common import SRC, BenchError, child_env, percentile
from spans import Tracer
from workloads import FEED_LATENCY_LIMIT_MS, FEED_RATES

_URL = re.compile(rb"http://([0-9.]+):(\d+)/")
SPAWN_TIMEOUT = 60.0


def _request(path: str, headers: dict[str, str]) -> bytes:
    lines = [f"GET {path} HTTP/1.1", "Host: feed"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def fleet_requests(server) -> tuple[list[tuple[str, bytes, object]], list[int]]:
    """The request mix of ``FeedClientFleet`` replayed over the history.

    The fleet (default ``FleetConfig``: 20 cohorts polling every 30
    minutes) polls ``server.handle`` at sim time; each poll is classed by
    its answer and by how many versions its client was behind the feed
    of that instant, and becomes the same request against the tip:
    ``not_modified``, ``behind-K`` or ``full``.  Every request carries
    the client's version and ETag, and ``Accept-Encoding: gzip`` as the
    fleet's in-browser clients would.

    Returns the request kinds — (name, wire bytes, ``FeedServer.handle``'s
    answer to the same client state) — and the kind of every fleet poll,
    in poll order.
    """
    from repro.feed import FeedRequest
    from repro.feed.fleet import FeedClientFleet

    snapshots = server.snapshots
    if len(snapshots) < 3:
        raise BenchError(f"feed history too short: {len(snapshots)} versions")
    position = {snapshot.version: index for index, snapshot in enumerate(snapshots)}
    polls: list[str] = []
    handle = server.handle

    def logged(request, now=None):
        response = handle(request, now=now)
        if response.status in ("full", "not_modified"):
            polls.append(response.status)
        else:
            behind = position[server.latest_at(now).version] - position[request.client_version]
            polls.append(f"behind-{behind}")
        return response

    server.handle = logged
    try:
        FeedClientFleet(server).run()
    finally:
        del server.handle
    gzip = {"Accept-Encoding": "gzip"}
    kinds = []
    for name in sorted(set(polls)):
        if name == "full":
            request, state = _request("/v1/feed", gzip), FeedRequest()
        else:
            behind = 0 if name == "not_modified" else int(name.partition("-")[2])
            snapshot = snapshots[max(0, len(snapshots) - 1 - behind)]
            request = _request(
                f"/v1/feed?since={snapshot.version}",
                {"If-None-Match": snapshot.content_hash, **gzip},
            )
            state = FeedRequest(
                client_version=snapshot.version, client_hash=snapshot.content_hash
            )
        kinds.append((name, request, server.handle(state)))
    index = {name: i for i, (name, _, _) in enumerate(kinds)}
    return kinds, [index[name] for name in polls]


def _read_response(sock: socket.socket) -> tuple[bytes, int, dict[str, str], bytes]:
    """One HTTP/1.1 response: (wire bytes, status code, headers, body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise BenchError("server closed the connection mid-response")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise BenchError("server closed the connection mid-body")
        rest += chunk
    if len(rest) > length:
        raise BenchError("server sent bytes beyond the response")
    wire = head + b"\r\n\r\n" + rest
    return wire, int(status_line.split(" ")[1]), headers, rest


def verify_references(address, kinds) -> list[bytes]:
    """Send each kind once; check it against ``FeedServer.handle``.

    Returns each kind's exact response bytes; raises on any mismatch.
    """
    references = []
    with socket.create_connection(address, timeout=10) as sock:
        for kind, request, expected in kinds:
            sock.sendall(request)
            wire, code, headers, body = _read_response(sock)
            gzip = False
            if expected.status == "not_modified":
                want_code, want_body = 304, b""
            else:
                want_code = 200
                gzip = expected.gzip_payload is not None
                want_body = expected.gzip_payload if gzip else expected.payload
            problems = []
            if code != want_code:
                problems.append(f"status {code} != {want_code}")
            if body != want_body:
                problems.append("body differs from FeedServer.handle")
            if headers.get("x-feed-version") != str(expected.version):
                problems.append(f"version {headers.get('x-feed-version')} != {expected.version}")
            if headers.get("x-feed-status") != expected.status:
                problems.append(f"feed status {headers.get('x-feed-status')} != {expected.status}")
            if headers.get("etag") != expected.content_hash:
                problems.append("ETag differs")
            if (headers.get("content-encoding") == "gzip") != gzip:
                problems.append("content encoding differs")
            if problems:
                raise BenchError(
                    f"CHECK FAILED: {kind} {request.splitlines()[0]!r}: {problems}"
                )
            references.append(wire)
    return references


def _http_get(address, path: str) -> tuple[int, bytes]:
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(_request(path, {"Connection": "close"}))
        _, code, _, body = _read_response(sock)
    return code, body


class ServerProcess:
    """``seacma feed serve STORE`` in its own process, on an ephemeral port."""

    def __init__(self, store: Path, log: Path) -> None:
        command = [sys.executable, "-u", "-m", "repro.cli", "feed", "serve", str(store), "--port", "0"]
        spawned = time.perf_counter()
        with open(log, "ab") as stderr:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, env=child_env()
            )
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self.proc.stdout, selectors.EVENT_READ)
                if not selector.select(SPAWN_TIMEOUT):
                    raise BenchError("feed server printed nothing")
            line = self.proc.stdout.readline()
            match = _URL.search(line)
            if match is None:
                raise BenchError(f"feed server printed no URL: {line!r}")
            self.address = (match.group(1).decode(), int(match.group(2)))
            deadline = spawned + SPAWN_TIMEOUT
            while True:
                try:
                    if _http_get(self.address, "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise BenchError("feed server never answered /healthz")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def build_schedule(seed: int, seconds: float, polls: list[int]) -> tuple[list, list[tuple[str, int, int]]]:
    """The open-loop ladder: (due offset, kind) per request, and each
    rate's (name, first, stop) slice.  Kinds are drawn from the fleet's
    polls."""
    rng = random.Random(seed)
    per_rate = seconds / len(FEED_RATES)
    schedule: list[tuple[float, int]] = []
    slices = []
    offset = 0.0
    for rate_name, rate in FEED_RATES.items():
        count = int(rate * per_rate)
        first = len(schedule)
        schedule += [(offset + i / rate, rng.choice(polls)) for i in range(count)]
        slices.append((rate_name, first, len(schedule)))
        offset += per_rate
    return schedule, slices


def trace(store: Path, seed: int, seconds: float, scratch: Path) -> dict:
    """Offer the ladder to a server of ``store``'s feed; its per-layer metrics."""
    # This process answers every request kind with FeedServer.handle, so
    # it imports the program too (the load itself never touches it).
    sys.path.insert(0, str(SRC))
    from repro.feed import FeedServer
    from repro.store import JsonlStore

    tracer = Tracer()
    tracer.wrap("repro.feed.server:PayloadStore", "feed.payload_store.build")
    server = FeedServer.from_store(JsonlStore.open(store))
    tracer.unwrap_all()
    kinds, polls = fleet_requests(server)
    shares = ", ".join(
        f"{name} {100 * polls.count(i) / len(polls):.1f}%" for i, (name, _, _) in enumerate(kinds)
    )
    print(f"feed: {len(server.snapshots)} feed versions; mix of {len(polls)} fleet polls: {shares}")

    process = ServerProcess(store, scratch / "server.log")
    try:
        references = verify_references(process.address, kinds)
        schedule, slices = build_schedule(seed, seconds, polls)
        requests = [request for _, request, _ in kinds]
        ladder = loadgen.run_open_loop(process.address, schedule, requests, references)
        code, body = _http_get(process.address, "/v1/stats")
        server_stats = json.loads(body) if code == 200 else {}
    finally:
        process.stop()

    if ladder.unanswered:
        print(
            f"feed: {ladder.unanswered} requests unanswered {loadgen.DRAIN_SECONDS:.0f}s "
            "after the last was due (counted as failed)"
        )
    for error in ladder.errors:
        print(f"CHECK FAILED: {error}")
    if ladder.wrong:
        print(f"CHECK FAILED: {ladder.wrong} responses differ from FeedServer.handle")
    correct = not (ladder.wrong or ladder.errors)
    return {
        "correct": correct,
        "attempted": len(schedule),
        "failed": ladder.unanswered + ladder.wrong if correct else len(schedule),
        "metrics": _layer_metrics(ladder, slices, server_stats, tracer),
    }


def _layer_metrics(result, slices, server_stats: dict, tracer: Tracer) -> dict:
    """The feed-serving and load-generator per-layer metrics."""
    metrics = {}
    max_rps = 0
    for name, first, stop in slices:
        samples = result.latencies_ms(first, stop)
        p99 = percentile(samples, 0.99)
        metrics[f"feed.p50_ms.{name}"] = percentile(samples, 0.50)
        metrics[f"feed.p99_ms.{name}"] = p99
        if p99 <= FEED_LATENCY_LIMIT_MS and len(samples) == stop - first:
            max_rps = max(max_rps, FEED_RATES[name])
    metrics["feed.max_rps"] = max_rps
    served = server_ms = 0.0
    for status, summary in server_stats.get("latency_ms", {}).items():
        if status in ("not_modified", "delta", "full") and summary.get("count"):
            metrics[f"feed.server.p50_ms.{status}"] = summary["p50_ms"]
            metrics[f"feed.server.p99_ms.{status}"] = summary["p99_ms"]
            served += summary["count"]
            server_ms += summary["count"] * summary["mean_ms"]
    if served:
        # Mean time a request spent outside the server's handler: in the
        # kernel, the event loop's queue and the generator.
        metrics["feed.wait_ms"] = statistics.fmean(result.latencies_ms()) - server_ms / served
    metrics["feed.bytes_per_req"] = result.bytes_received / len(result.due)
    metrics["feed.payload_store.build_s"] = tracer.total_s("feed.payload_store.build")
    metrics["loadgen.late_p99_ms"] = percentile(result.late_ms(), 0.99)
    metrics["loadgen.cpu_s"] = result.cpu_s
    return metrics
