"""Serving-correctness suite for the feed HTTP front-end.

The contract under test: the asyncio front-end
(:class:`~repro.feed.asyncserve.AsyncFeedHTTPServer`) — including every
``SO_REUSEPORT`` worker replica — serves, for every
``(client_version, client_hash)`` case, exactly the answer the
in-process :meth:`~repro.feed.server.FeedServer.handle` gives, and the underlying
:class:`~repro.feed.server.FeedServer` protocol is invariant under
record round-trips for every ``(client_version, client_hash, now)``
case.  "Byte-identical" means the response body plus every
protocol-significant header (``ETag``, ``X-Feed-Version``,
``X-Feed-Status``, ``Content-Encoding``) and the status code; transport
headers like ``Date`` are the front-end's own business.

Also here: regression coverage for the serving bug sweep —

* a client at the latest *version* with a mismatched *hash* (corrupted
  state) must be repaired with a full snapshot, never answered 304
  (proved at the HTTP layer and at fleet level);
* request handling never re-renders snapshot canonical bytes;
* ``ServerStats`` counters are exact under concurrency (threads calling
  ``handle`` and concurrent pipelined HTTP clients alike);
* ``latest_at`` (bisect) agrees with a linear reference scan everywhere,
  including exact publication instants.
"""

from __future__ import annotations

import asyncio
import gzip
import http.client
import http.server
import io
import json
import socket
import threading
import time

import pytest

from repro.clock import HOUR, MINUTE, SimClock
from repro.feed import (
    DELTA,
    FULL,
    NOT_MODIFIED,
    FeedClientFleet,
    FeedEntry,
    FeedRequest,
    FeedServer,
    FeedSnapshot,
    FleetConfig,
)
from repro.feed.asyncserve import (
    LATENCY_BOUNDARIES_MS,
    MAX_HEAD_BYTES,
    AsyncFeedHTTPServer,
    AsyncFeedServer,
    FeedProtocol,
    latency_summary,
)
from repro.feed.snapshot import state_hash
from repro.telemetry import Telemetry, use
from repro.telemetry.metrics import Histogram

# --------------------------------------------------------------- fixtures

#: Small enough to exercise compaction (multiple checkpoint hops from
#: v1), large enough that "close to the tip" and "far behind" differ.
INTERVAL = 4
VERSIONS = 21


def _entry(domain: str, first: float, last: float | None = None) -> FeedEntry:
    return FeedEntry(
        domain=domain,
        cluster_id=1,
        category="Fake Software",
        network="adnet-a",
        first_seen=first,
        last_seen=last if last is not None else first,
    )


def build_history(versions: int = VERSIONS) -> list[FeedSnapshot]:
    """A history with additions, updates, and removals in every delta.

    Version ``v`` (published at ``v`` hours) carries domains
    ``d1..dv`` minus every multiple of 7 that is at least three
    versions old (removals), with ``d1`` touched every version
    (updates) — so deltas are never empty and never trivial.
    """
    history = []
    for version in range(1, versions + 1):
        entries = []
        for i in range(1, version + 1):
            if i % 7 == 0 and version >= i + 3:
                continue  # removed three versions after introduction
            last = version * HOUR if i == 1 else None
            entries.append(_entry(f"d{i}.com", first=i * HOUR, last=last))
        history.append(
            FeedSnapshot.build(
                version=version, published_at=version * HOUR, entries=entries
            )
        )
    return history


@pytest.fixture(scope="module")
def history() -> list[FeedSnapshot]:
    return build_history()


def make_server(history: list[FeedSnapshot]) -> FeedServer:
    return FeedServer(history, checkpoint_interval=INTERVAL)


def fetch(
    port: int, path: str, headers: dict | None = None
) -> tuple[int, bytes, dict]:
    """One GET over a fresh connection; returns (status, body, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        return response.status, body, dict(response.getheaders())
    finally:
        conn.close()


def exchange(port: int, chunks: list[bytes]) -> bytes:
    """Send ``chunks`` over one raw connection; read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        for chunk in chunks:
            sock.sendall(chunk)
        blob = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return blob
            blob += chunk


class _StdlibHeadProbe(http.server.BaseHTTPRequestHandler):
    """Runs only stdlib ``parse_request`` over one request head."""

    protocol_version = "HTTP/1.1"

    def __init__(self, head: bytes) -> None:  # no socket: parse only
        self.rfile = io.BytesIO(head)
        self.raw_requestline = self.rfile.readline()
        assert self.parse_request()


class FakeLoop:
    """The two loop calls :class:`FeedProtocol` makes, on a manual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self.timers: list[FakeTimer] = []

    def time(self) -> float:
        return self.now

    def call_later(self, delay: float, callback) -> "FakeTimer":
        timer = FakeTimer(self.now + delay, callback)
        self.timers.append(timer)
        return timer

    def advance(self, seconds: float) -> None:
        """Move the clock, firing every timer that comes due on the way."""
        target = self.now + seconds
        while True:
            due = [t for t in self.timers if not t.cancelled and t.when <= target]
            if not due:
                break
            timer = min(due, key=lambda t: t.when)
            self.timers.remove(timer)
            self.now = timer.when
            timer.callback()
        self.now = target


class FakeTimer:
    def __init__(self, when: float, callback) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class RecordingTransport:
    """A transport stand-in whose peer reads nothing until :meth:`drain`.

    Written bytes stay buffered; past ``high_water`` the protocol's
    ``pause_writing`` is called, and draining to ``high_water // 4``
    calls ``resume_writing`` — the flow control of asyncio's own
    transports.
    """

    def __init__(self, protocol: FeedProtocol, high_water: int = 1 << 40) -> None:
        self.protocol = protocol
        self.high_water = high_water
        self.written = bytearray()
        self.buffered = 0
        self.peak = 0
        self.paused = False
        self.reading = True
        self.closed = False
        self.aborted = False

    def get_extra_info(self, name: str):
        return None

    def write(self, data: bytes) -> None:
        self.written += data
        self.buffered += len(data)
        self.peak = max(self.peak, self.buffered)
        if self.buffered > self.high_water and not self.paused:
            self.paused = True
            self.protocol.pause_writing()

    def drain(self, size: int) -> None:
        self.buffered = max(0, self.buffered - size)
        if self.paused and self.buffered <= self.high_water // 4:
            self.paused = False
            self.protocol.resume_writing()

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_closing(self) -> bool:
        return self.closed or self.aborted

    def close(self) -> None:
        self.closed = True

    def abort(self) -> None:
        self.aborted = True


def connected(engine: AsyncFeedServer, **transport_options) -> tuple:
    """A :class:`FeedProtocol` on a fake loop and transport."""
    loop = FakeLoop()
    protocol = FeedProtocol(engine, loop)
    transport = RecordingTransport(protocol, **transport_options)
    protocol.connection_made(transport)
    return protocol, transport, loop


def significant(status: int, body: bytes, headers: dict) -> tuple:
    """The protocol-significant projection of one HTTP response."""
    return (
        status,
        body,
        headers.get("ETag"),
        headers.get("X-Feed-Version"),
        headers.get("X-Feed-Status"),
        headers.get("Content-Encoding"),
    )


#: The error and health bodies, pinned byte for byte.
HEALTHZ = (200, b'{"status":"ok"}\n')
NOT_FOUND = (404, b'{"error":"unknown path"}\n')
BAD_SINCE = (400, b'{"error":"since must be an integer version"}\n')


def expected(
    feed: FeedServer,
    since: str | None = None,
    client_hash: str | None = None,
    gzip_ok: bool = False,
) -> tuple:
    """What :meth:`FeedServer.handle` answers, as :func:`significant`
    projects an HTTP response: 304 with no body, or 200 with the payload
    (the publish-time gzip variant when the client accepts it)."""
    version = int(since) if since else None
    response = feed.handle(FeedRequest(client_version=version, client_hash=client_hash))
    if response.status == NOT_MODIFIED:
        status, body, encoding = 304, b"", None
    elif gzip_ok and response.gzip_payload is not None:
        status, body, encoding = 200, response.gzip_payload, "gzip"
    else:
        status, body, encoding = 200, response.payload, None
    return (
        status,
        body,
        response.content_hash,
        str(response.version),
        response.status,
        encoding,
    )


# --------------------------------------- asyncio vs FeedServer.handle


class TestFrontEndEquivalence:
    """Exhaustive (client_version, client_hash) sweep: the asyncio engine
    over the wire against :meth:`FeedServer.handle` in process."""

    @pytest.fixture(scope="class")
    def servers(self, history):
        with AsyncFeedHTTPServer(make_server(history)) as aio:
            yield make_server(history), aio

    def _cases(self, history):
        latest = history[-1]
        since_values = [None, "0", "999", "-3"] + [
            str(snapshot.version) for snapshot in history
        ]
        hash_values = [
            None,
            latest.content_hash,  # current client (conditional request)
            history[1].content_hash,  # stale but well-formed hash
            "sha256:corrupt",  # corrupted client state
        ]
        for since in since_values:
            for client_hash in hash_values:
                yield since, client_hash

    def test_every_case_byte_identical(self, servers, history):
        feed, aio = servers
        checked = 0
        for since, client_hash in self._cases(history):
            path = "/v1/feed" if since is None else f"/v1/feed?since={since}"
            for gzip_ok in (False, True):
                headers = {} if client_hash is None else {"If-None-Match": client_hash}
                if gzip_ok:
                    headers["Accept-Encoding"] = "gzip"
                reference = expected(feed, since, client_hash, gzip_ok)
                candidate = significant(*fetch(aio.port, path, headers))
                assert candidate == reference, (since, client_hash, gzip_ok)
                checked += 1
        assert checked == (len(history) + 4) * 4 * 2

    def test_malformed_since_is_400_on_both(self, servers):
        _, aio = servers
        status, body, headers = fetch(aio.port, "/v1/feed?since=banana")
        assert (status, body) == BAD_SINCE
        assert "ETag" not in headers and "X-Feed-Status" not in headers

    def test_empty_since_serves_full_on_both(self, servers, history):
        feed, aio = servers
        candidate = significant(*fetch(aio.port, "/v1/feed?since="))
        assert candidate == expected(feed)
        assert candidate[4] == FULL
        assert json.loads(candidate[1])["version"] == history[-1].version

    def test_unknown_path_and_health_agree(self, servers):
        _, aio = servers
        assert fetch(aio.port, "/healthz")[:2] == HEALTHZ
        assert fetch(aio.port, "/nope")[:2] == NOT_FOUND

    def test_gzip_bodies_decompress_to_identity(self, servers):
        _, aio = servers
        plain_status, plain, _ = fetch(aio.port, "/v1/feed?since=1")
        status, body, headers = fetch(
            aio.port, "/v1/feed?since=1", {"Accept-Encoding": "gzip"}
        )
        assert plain_status == status == 200
        assert headers.get("Content-Encoding") == "gzip"
        assert len(body) < len(plain)
        assert gzip.decompress(body) == plain

    def test_delta_chain_compaction_over_http(self, servers, history):
        """since=v1 gets a *small* delta to a checkpoint, not the tip."""
        _, aio = servers
        full_size = len(fetch(aio.port, "/v1/feed")[1])
        status, body, headers = fetch(aio.port, "/v1/feed?since=1")
        assert status == 200 and headers["X-Feed-Status"] == DELTA
        target = int(headers["X-Feed-Version"])
        assert 1 < target < history[-1].version  # a checkpoint, not the tip
        assert len(body) < full_size / 2


class TestAsyncOnlySurface:
    def test_post_is_405(self, history):
        with AsyncFeedHTTPServer(make_server(history)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                conn.request("POST", "/v1/feed", body=b"{}")
                assert conn.getresponse().status == 405
            finally:
                conn.close()

    def test_pipelined_requests_answered_in_order(self, history):
        feed = make_server(history)
        with AsyncFeedHTTPServer(feed) as server:
            raw = (
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/feed?since=banana HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/feed HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                sock.sendall(raw)
                blob = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    blob += chunk
            assert blob.count(b"HTTP/1.1 ") == 3
            assert b"HTTP/1.1 200 OK" in blob
            assert b"HTTP/1.1 400 Bad Request" in blob
            assert blob.index(b'"status":"ok"') < blob.index(b"400 Bad Request")
            # The final (full) response arrived complete.
            assert feed.latest.canonical_bytes() in blob

    def test_workers_must_be_positive(self, history):
        with pytest.raises(ValueError, match="workers"):
            AsyncFeedHTTPServer(make_server(history), workers=0)

    @pytest.mark.parametrize(
        "header, closes",
        [
            (b"Connection: close", True),
            (b"Connection:close", True),
            (b"connection: CLOSE", True),
            (b"X-Note: connection: close", False),
            (b"Connection: keep-alive", False),
        ],
    )
    def test_connection_header_parsed_like_stdlib(self, history, header, closes):
        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + header + b"\r\n\r\n"
        assert _StdlibHeadProbe(head).close_connection is closes
        # A pipelined follow-up is answered only if the first request
        # left the connection open; it closes the connection itself.
        follow_up = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        with AsyncFeedHTTPServer(make_server(history)) as server:
            blob = exchange(server.port, [head + follow_up])
        assert blob.count(b"HTTP/1.1 200 OK") == (1 if closes else 2)

    def test_oversized_head_is_431_and_closes(self, history):
        engine = AsyncFeedServer(make_server(history))
        protocol, transport, _ = connected(engine)
        # A pipelined burst of complete heads far past the cap is fine.
        burst = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" * 4096
        assert len(burst) > MAX_HEAD_BYTES
        protocol.data_received(burst)
        assert transport.written.count(b"HTTP/1.1 200 OK") == 4096
        assert not transport.closed and protocol.buffer == b""
        # An unterminated head is buffered only up to the cap.
        transport.written = b""
        chunk = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 4000
        while not transport.closed:
            protocol.data_received(chunk)
            assert len(protocol.buffer) <= MAX_HEAD_BYTES
            chunk = b"a" * 4096
        assert transport.written.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        )
        assert transport.written.count(b"HTTP/1.1 ") == 1
        assert protocol.buffer == b""
        assert engine.bad_requests == 1

        # Live: 65,537 bytes with no terminator, streamed in chunks.
        with AsyncFeedHTTPServer(make_server(history)) as server:
            payload = b"GET /healthz HTTP/1.1\r\nX-Pad: "
            payload += b"a" * (MAX_HEAD_BYTES + 1 - len(payload))
            chunks = [payload[i:i + 4096] for i in range(0, len(payload), 4096)]
            blob = exchange(server.port, chunks)
            stats = json.loads(fetch(server.port, "/v1/stats")[1])
        assert blob.startswith(b"HTTP/1.1 431 ")
        assert blob.count(b"HTTP/1.1 ") == 1
        assert stats["bad_requests"] == 1

    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: %d",
            b"content-length:%d",
            b"Transfer-Encoding: chunked",
            b"transfer-encoding:",
        ],
    )
    def test_get_with_body_is_400_and_closes(self, history, framing):
        """A body on a GET is never parsed as the next request."""
        body = b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        if b"%d" in framing:
            framing = framing % len(body)
        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + framing + b"\r\n\r\n"
        with AsyncFeedHTTPServer(make_server(history)) as server:
            blob = exchange(server.port, [head + body])
            stats = json.loads(fetch(server.port, "/v1/stats")[1])
        assert blob.count(b"HTTP/1.1 ") == 1
        assert blob.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close\r\n" in blob
        assert stats["bad_requests"] == 1

    @pytest.mark.parametrize(
        "head",
        [
            # Two lengths: the 5 body bytes would frame the next request.
            b"GET /healthz HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n"
            b"Content-Length: 5",
            b"GET /healthz HTTP/1.1\r\nHost: a\r\nhost: b",
            # obs-fold: a continuation line glued to the previous header.
            b"GET /healthz HTTP/1.1\r\nHost: a\r\nX-Note: one\r\n two",
            # Bare LF inside a CRLF-terminated head.
            b"GET /healthz HTTP/1.1\r\nHost: a\nContent-Length: 5",
        ],
        ids=["duplicate-content-length", "duplicate-host", "obs-fold", "bare-lf"],
    )
    def test_ambiguous_head_is_400_and_closes(self, history, head):
        follow_up = b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n"
        engine = AsyncFeedServer(make_server(history))
        protocol, transport, _ = connected(engine)
        protocol.data_received(head + b"\r\n\r\n" + follow_up)
        assert transport.written.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert transport.written.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close\r\n" in transport.written
        assert transport.closed
        assert engine.bad_requests == 1

        with AsyncFeedHTTPServer(make_server(history)) as server:
            blob = exchange(server.port, [head + b"\r\n\r\n" + follow_up])
            stats = json.loads(fetch(server.port, "/v1/stats")[1])
        assert blob.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert blob.count(b"HTTP/1.1 ") == 1
        assert stats["bad_requests"] == 1

    def test_zero_length_body_is_served(self, history):
        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n"
        with AsyncFeedHTTPServer(make_server(history)) as server:
            blob = exchange(server.port, [head + b"Connection: close\r\n\r\n"])
        assert blob.startswith(b"HTTP/1.1 200 OK\r\n")
        assert blob.endswith(HEALTHZ[1])


# ------------------------------------------------------- worker replicas


class TestWorkerReplicas:
    def test_wire_tables_identical_across_independent_builds(self, history):
        """The determinism theorem behind SO_REUSEPORT replication:
        a replica rebuilt from snapshot *records* (exactly what a forked
        worker does) produces byte-identical wire responses."""
        parent = AsyncFeedServer(make_server(history))
        records = [snapshot.to_record() for snapshot in history]
        replica = AsyncFeedServer(
            FeedServer(
                (FeedSnapshot.from_record(record) for record in records),
                checkpoint_interval=INTERVAL,
            )
        )
        assert replica.wire.answers == parent.wire.answers

    @pytest.mark.skipif(
        not hasattr(socket, "SO_REUSEPORT"), reason="needs SO_REUSEPORT"
    )
    def test_live_replicas_match_stdlib_reference(self, history):
        """Every response from a 2-replica server — whichever process
        answers — is what :meth:`FeedServer.handle` answers."""
        feed = make_server(history)
        replicated = AsyncFeedHTTPServer(make_server(history), workers=2)
        sinces = [None, "1", str(history[-2].version), "999"]
        cases = [
            "/v1/feed" if since is None else f"/v1/feed?since={since}"
            for since in sinces
        ]
        reference = {
            path: expected(feed, since) for path, since in zip(cases, sinces)
        }
        with replicated:
            pids = set()
            deadline = time.monotonic() + 20
            while len(pids) < 2 and time.monotonic() < deadline:
                for path in cases:
                    candidate = significant(*fetch(replicated.port, path))
                    assert candidate == reference[path], path
                stats = json.loads(fetch(replicated.port, "/v1/stats")[1])
                pids.add(stats["replica_pid"])
        assert len(pids) == 2, "both replicas should have answered"


# ------------------------------------- protocol invariance incl. the now axis


class TestScopedProtocolEquivalence:
    def test_every_scoped_case_invariant_under_record_round_trip(self, history):
        """handle(request, now) is a pure function of the snapshot
        records for every (client_version, client_hash, now)."""
        one = make_server(history)
        records = [snapshot.to_record() for snapshot in history]
        two = FeedServer(
            (FeedSnapshot.from_record(record) for record in records),
            checkpoint_interval=INTERVAL,
        )
        latest = history[-1]
        nows = [0.0, 0.5 * HOUR]
        for snapshot in history:
            nows += [snapshot.published_at, snapshot.published_at + 0.5 * HOUR]
        versions = [None, 1, history[len(history) // 2].version, latest.version, 999]
        hashes = [None, latest.content_hash, history[3].content_hash, "sha256:corrupt"]
        for now in nows:
            for client_version in versions:
                for client_hash in hashes:
                    request = FeedRequest(
                        client_version=client_version, client_hash=client_hash
                    )
                    assert one.handle(request, now=now) == two.handle(
                        request, now=now
                    ), (now, client_version, client_hash)

    def test_scoped_repair_of_corrupted_client(self, history):
        """The 304 bug, on the time-scoped path: version-current but
        hash-mismatched clients get a full snapshot."""
        server = make_server(history)
        scoped_latest = history[5]
        response = server.handle(
            FeedRequest(
                client_version=scoped_latest.version, client_hash="sha256:corrupt"
            ),
            now=scoped_latest.published_at,
        )
        assert response.status == FULL
        assert response.version == scoped_latest.version


class TestLatestAtBisect:
    def test_bisect_agrees_with_linear_scan_everywhere(self, history):
        server = make_server(history)

        def linear(now: float) -> FeedSnapshot | None:
            newest = None
            for snapshot in server.snapshots:
                if snapshot.published_at <= now:
                    newest = snapshot
            return newest

        probes = [-1.0, 0.0, history[-1].published_at + HOUR]
        for snapshot in history:
            probes += [
                snapshot.published_at - 1e-9,
                snapshot.published_at,
                snapshot.published_at + 1e-9,
            ]
        for now in probes:
            assert server.latest_at(now) == linear(now), now


# --------------------------------------------------- bug-sweep regressions


class TestCorruptedClientRepair:
    def test_http_repair_on_both_front_ends(self, history):
        """A client claiming the latest version with a wrong hash is
        served a full snapshot (200), never 304 — over HTTP exactly as
        :meth:`FeedServer.handle` answers in process."""
        latest = history[-1]
        since = str(latest.version)
        reference = expected(make_server(history), since, "sha256:corrupt")
        assert reference[0] == 200 and reference[4] == FULL
        with AsyncFeedHTTPServer(make_server(history)) as aio:
            response = fetch(
                aio.port,
                f"/v1/feed?since={since}",
                {"If-None-Match": "sha256:corrupt"},
            )
        assert significant(*response) == reference
        assert json.loads(response[1])["version"] == latest.version

    def test_fleet_recovers_from_corrupted_cohort(self, history):
        """Fleet-level regression: corrupt a cohort's state once it
        reaches the latest version; its next poll must repair it.  With
        the old always-304-at-latest-version bug the cohort stayed
        corrupted forever."""

        class CorruptingFleet(FeedClientFleet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.corruptions = 0
                self.final_cohorts = None

            def _poll(self, cohort, now):
                super()._poll(cohort, now)
                if (
                    self.corruptions == 0
                    and cohort.version == self.server.latest.version
                ):
                    # Damage this cohort's copy only: after a delta its
                    # entry map is shared read-only with other cohorts.
                    cohort.entries = dict(list(cohort.entries.items())[1:])
                    cohort.content_hash = "sha256:corrupt"
                    self.corruptions += 1

            def _report(self, cohorts, start, until):
                self.final_cohorts = cohorts
                return super()._report(cohorts, start, until)

        server = make_server(history)
        fleet = CorruptingFleet(
            server,
            FleetConfig(cohorts=4, clients_per_cohort=10, poll_interval_minutes=30),
        )
        report = fleet.run()
        assert fleet.corruptions == 1
        latest = server.latest
        for cohort in fleet.final_cohorts:
            assert cohort.version == latest.version
            assert state_hash(cohort.entries) == latest.content_hash
        assert server.stats.full_responses >= fleet.config.cohorts + 1
        assert report.polls == len(report.poll_latency_ms)


class TestNoPerRequestRendering:
    def test_handle_never_rerenders_snapshot_bytes(self, history, monkeypatch):
        """Bug 2: ``_payload_response`` used to re-render ~265KB of
        canonical bytes per delta request.  All snapshot rendering now
        happens at construction — afterwards the method must never run."""
        server = make_server(history)
        latest = history[-1]
        expected_full = latest.canonical_bytes()  # before the tripwire

        def boom(self):
            raise AssertionError("canonical_bytes() called on the serving path")

        monkeypatch.setattr(FeedSnapshot, "canonical_bytes", boom)
        assert server.handle(FeedRequest()).payload == expected_full
        assert server.handle(FeedRequest(client_version=1)).status == DELTA
        assert (
            server.handle(FeedRequest(client_hash=latest.content_hash)).status
            == NOT_MODIFIED
        )
        # Time-scoped path too: full bytes come from the render-once
        # store; only *delta* records are serialized (and then cached).
        scoped = server.handle(FeedRequest(), now=history[4].published_at)
        assert scoped.status == FULL and scoped.version == history[4].version
        assert (
            server.handle(
                FeedRequest(client_version=history[-4].version),
                now=history[-2].published_at,
            ).status
            == DELTA
        )


class TestConcurrentStatsExactness:
    THREADS = 8
    PER_THREAD = 40

    def _expected(self, polls: int) -> dict:
        # Each worker loop issues: 1 full, 1 delta, 1 not-modified.
        return {"full": polls, "delta": polls, "not_modified": polls}

    def test_in_process_handle_counts_exact(self, history):
        """Bug 3: ServerStats.record was not thread-safe; counts are now
        exact under concurrent mutation, not approximate."""
        server = make_server(history)
        latest = server.latest
        barrier = threading.Barrier(self.THREADS)

        def worker():
            barrier.wait()
            for _ in range(self.PER_THREAD):
                server.handle(FeedRequest())
                server.handle(FeedRequest(client_version=1))
                server.handle(FeedRequest(client_hash=latest.content_hash))

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        polls = self.THREADS * self.PER_THREAD
        stats = server.stats.as_dict()
        assert stats["requests"] == 3 * polls
        assert stats["full"] == polls
        assert stats["delta"] == polls
        assert stats["not_modified"] == polls
        full_size = len(latest.canonical_bytes())
        delta_size = server.payloads.answer(1, None, server.payloads.tip).payload
        assert stats["bytes_served"] == polls * (full_size + len(delta_size))

    def test_stdlib_http_concurrent_counts_exact(self, history):
        """Concurrent one-request connections (the access pattern of
        ``urllib``/``curl`` clients) are counted exactly."""
        server = AsyncFeedHTTPServer(make_server(history))
        latest = server.feed.latest
        threads_n, per_thread = 6, 8
        barrier = threading.Barrier(threads_n)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                assert fetch(server.port, "/v1/feed")[0] == 200
                assert fetch(server.port, "/v1/feed?since=1")[0] == 200
                status, _, _ = fetch(
                    server.port, "/v1/feed", {"If-None-Match": latest.content_hash}
                )
                assert status == 304
                assert fetch(server.port, "/v1/feed?since=nope")[0] == 400

        with server:
            threads = [threading.Thread(target=worker) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = json.loads(fetch(server.port, "/v1/stats")[1])
        polls = threads_n * per_thread
        assert stats["requests"] == 3 * polls  # 400s never reach the protocol
        assert stats["full"] == polls
        assert stats["delta"] == polls
        assert stats["not_modified"] == polls
        assert stats["bad_requests"] == polls

    def test_async_http_concurrent_counts_exact(self, history):
        server = AsyncFeedHTTPServer(make_server(history))
        latest = server.feed.latest
        clients_n, per_client = 8, 10

        async def read_response(reader) -> int:
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            if length:
                await reader.readexactly(length)
            return status

        async def client(port: int):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = (
                b"GET /v1/feed HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/feed?since=1 HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/feed HTTP/1.1\r\nHost: x\r\nIf-None-Match: "
                + latest.content_hash.encode() + b"\r\n\r\n"
                b"GET /v1/feed?since=nope HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            statuses = []
            for _ in range(per_client):
                writer.write(requests)  # four pipelined requests
                await writer.drain()
                for _ in range(4):
                    statuses.append(await read_response(reader))
            writer.close()
            await writer.wait_closed()
            return statuses

        async def drive(port: int):
            return await asyncio.gather(*(client(port) for _ in range(clients_n)))

        with server:
            results = asyncio.run(drive(server.port))
            stats = json.loads(fetch(server.port, "/v1/stats")[1])
        for statuses in results:
            assert statuses == [200, 200, 304, 400] * per_client
        polls = clients_n * per_client
        assert stats["requests"] == 3 * polls
        assert stats["full"] == polls
        assert stats["delta"] == polls
        assert stats["not_modified"] == polls
        assert stats["bad_requests"] == polls
        latency = stats["latency_ms"]
        assert latency[FULL]["count"] == polls
        assert latency[DELTA]["count"] == polls
        assert latency[NOT_MODIFIED]["count"] == polls
        assert latency["error"]["count"] == polls
        for summary in latency.values():
            assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]


# ----------------------------------------------------- serving telemetry


class TestServingTelemetry:
    def test_async_engine_emits_latency_and_payload_metrics(self, history):
        engine = AsyncFeedServer(make_server(history))
        telemetry = Telemetry(SimClock(0.0))
        with use(telemetry):
            engine.respond(b"GET /v1/feed HTTP/1.1\r\nHost: x")
            engine.respond(b"GET /v1/feed?since=1 HTTP/1.1\r\nHost: x")
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["feed.http.requests"] == 2
        assert counters[f"feed.http.payload_bytes.{FULL}"] == len(
            history[-1].canonical_bytes()
        )
        assert counters[f"feed.http.payload_bytes.{DELTA}"] > 0
        histograms = telemetry.metrics.snapshot()["histograms"]
        assert histograms[f"feed.http.latency_ms.{FULL}"]["count"] == 1
        assert histograms[f"feed.http.latency_ms.{DELTA}"]["count"] == 1


# ------------------------------------------------- fleet tail percentiles


class TestFleetPercentiles:
    def test_lag_percentiles_deterministic_and_ordered(self, history):
        config = FleetConfig(cohorts=5, clients_per_cohort=100, seed=7)
        reports = [
            FeedClientFleet(make_server(history), config).run() for _ in range(2)
        ]
        first, second = (report.lag_percentiles() for report in reports)
        assert first == second  # sim-clock quantities: fully deterministic
        assert first["count"] == len(reports[0].lag_samples_minutes) > 0
        assert first["p50"] <= first["p95"] <= first["p99"] <= first["max"]
        latency = reports[0].latency_percentiles()
        assert latency["count"] == reports[0].polls
        assert latency["p50"] <= latency["p99"]
        # Wall-clock latencies are diagnostic, never part of equality.
        assert reports[0] == reports[1]


# ------------------------------------------------- cross-replica stats


class TestClusterStats:
    def test_histogram_merge_matches_combined_observations(self):
        one, two, combined = (
            Histogram("latency", LATENCY_BOUNDARIES_MS) for _ in range(3)
        )
        for value in (0.02, 0.3, 7.0):
            one.observe(value)
            combined.observe(value)
        for value in (0.04, 40.0):
            two.observe(value)
            combined.observe(value)
        one.merge(two.snapshot())
        assert one.bucket_counts == combined.bucket_counts
        assert one.count == combined.count
        assert one.total == pytest.approx(combined.total)
        assert latency_summary(one) == latency_summary(combined)

    def test_histogram_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError, match="buckets"):
            Histogram("latency", LATENCY_BOUNDARIES_MS).merge(
                Histogram("latency", (1.0, 2.0)).snapshot()
            )

    def test_mailbox_merge_sums_counters_and_histograms(self, history, tmp_path):
        """Two engines sharing a mailbox: either one's cluster view is
        the sum of both, with its *own* counters read live."""
        sibling = AsyncFeedServer(make_server(history), stats_dir=str(tmp_path))
        local = AsyncFeedServer(make_server(history), stats_dir=str(tmp_path))
        for _ in range(3):
            sibling.respond(b"GET /v1/feed HTTP/1.1\r\nHost: x")
        sibling.respond(b"GET /v1/feed?since=nope HTTP/1.1\r\nHost: x")
        for _ in range(2):
            local.respond(b"GET /v1/feed?since=1 HTTP/1.1\r\nHost: x")
        # Fake a distinct sibling pid so the mailbox holds two replicas
        # (both engines live in this test process).
        record = sibling.stats_record()
        record["replica_pid"] = -1
        (tmp_path / "replica--1.json").write_text(json.dumps(record))
        merged = local.cluster_stats()
        assert merged["scope"] == "cluster"
        assert merged["replicas"] == 2
        assert merged["requests"] == 5
        assert merged["full"] == 3
        assert merged["delta"] == 2
        assert merged["bad_requests"] == 1
        assert merged["latency_ms"][FULL]["count"] == 3
        assert merged["latency_ms"][DELTA]["count"] == 2
        assert merged["latency_ms"]["error"]["count"] == 1
        assert (
            merged["bytes_served"]
            == sibling.feed.stats.bytes_served + local.feed.stats.bytes_served
        )

    def test_mailbox_ignores_torn_or_foreign_files(self, history, tmp_path):
        engine = AsyncFeedServer(make_server(history), stats_dir=str(tmp_path))
        engine.respond(b"GET /v1/feed HTTP/1.1\r\nHost: x")
        (tmp_path / "replica--2.json").write_text("{not json")
        (tmp_path / "notes.txt").write_text("ignored")
        merged = engine.cluster_stats()
        assert merged["replicas"] == 1
        assert merged["requests"] == 1

    def test_publish_is_atomic_and_idempotent(self, history, tmp_path):
        engine = AsyncFeedServer(make_server(history), stats_dir=str(tmp_path))
        engine.respond(b"GET /v1/feed HTTP/1.1\r\nHost: x")
        engine.publish_stats()
        engine.publish_stats()
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [f"replica-{__import__('os').getpid()}.json"]
        record = json.loads((tmp_path / files[0]).read_text())
        assert record["counters"]["requests"] == 1

    @pytest.mark.skipif(
        not hasattr(socket, "SO_REUSEPORT"), reason="needs SO_REUSEPORT"
    )
    def test_live_cluster_scope_accounts_every_replica(self, history):
        """Fire /v1/feed at a 2-replica server until both have served,
        then the cluster view — from whichever replica answers — must
        converge on the exact fleet-wide totals."""
        server = AsyncFeedHTTPServer(make_server(history), workers=2)
        with server:
            pids, sent = set(), 0
            deadline = time.monotonic() + 20
            while len(pids) < 2 and time.monotonic() < deadline:
                fetch(server.port, "/v1/feed")
                sent += 1
                stats = json.loads(fetch(server.port, "/v1/stats")[1])
                pids.add(stats["replica_pid"])
            assert len(pids) == 2, "both replicas should have answered"
            merged = None
            while time.monotonic() < deadline:
                merged = json.loads(
                    fetch(server.port, "/v1/stats?scope=cluster")[1]
                )
                if merged["requests"] == sent and merged["replicas"] == 2:
                    break
                time.sleep(0.1)  # sibling mailbox refresh is periodic
            assert merged is not None
            assert merged["scope"] == "cluster"
            assert merged["replicas"] == 2
            assert sorted(merged["replica_pids"]) == sorted(pids)
            assert merged["requests"] == sent
            assert merged["full"] == sent
            assert merged["latency_ms"][FULL]["count"] == sent
