"""The asyncio HTTP front-end for the blocklist feed.

``seacma feed serve`` mounts a :class:`~repro.feed.server.FeedServer`
behind ``GET /v1/feed[?since=N]`` (full snapshot or delta; ``304`` on a
matching ``If-None-Match``), ``GET /v1/stats`` and ``GET /healthz``.
Each poll is answered by :meth:`PayloadStore.answer
<repro.feed.payloads.PayloadStore.answer>` — the same call
:meth:`FeedServer.handle <repro.feed.server.FeedServer.handle>` makes —
and the engine keeps only the **complete HTTP wire bytes** of every
answer the tip of the feed can give (status line, headers, body;
identity and gzip variants), rendered at startup.  The event loop
answers a request with two dictionary lookups and one
``transport.write``: nothing is serialized or rendered per request.
So for every ``(client_version, client_hash)`` case the wire
response carries the status, body, ``ETag``, ``X-Feed-Version`` and
``X-Feed-Status`` that ``handle`` answers
(``tests/test_feed_serving.py`` proves it exhaustively).

Transport guards (see :class:`FeedProtocol`): idle connections are
evicted, a client that never reads its responses is paused, oversized
heads get a 431, and GETs with a body and ambiguous heads (bare-LF line
ends, obs-fold lines, a repeated ``Content-Length`` or ``Host``) a 400
and a close; ``/v1/stats`` counts them as ``stalled_timeouts``,
``client_disconnects`` and ``bad_requests``.

Scaling out: ``workers=N`` runs N replicas accepting on the same
``(host, port)`` via ``SO_REUSEPORT`` — replica 0 in-process, the rest
as forked worker processes that **independently rebuild** their wire
table from the snapshot records.  Byte-identity across replicas is the
determinism argument, not shared memory: every wire byte is a pure
function of the snapshot records, so independently constructed replicas
cannot disagree (also proved in the test suite).

Serving telemetry: per-status wall-latency histograms and payload-byte
counters, exposed in ``/v1/stats`` and mirrored into the process
telemetry (``feed.http.latency_ms.*`` / ``feed.http.payload_bytes.*``)
when a :mod:`repro.telemetry` context is active.

Cluster stats: with ``workers=N`` every replica periodically publishes
its raw counters to a shared *stats mailbox* directory (atomic
tmp-write + ``os.replace``, so readers never see a torn file), and
``GET /v1/stats?scope=cluster`` answers with the merge — counters
summed, latency histograms combined bucket-wise — plus the replica
count, regardless of which replica the kernel routed the request to.
"""

from __future__ import annotations

import asyncio
import glob
import json
import multiprocessing
import os
import shutil
import socket
import sys
import tempfile
import threading
import time
from urllib.parse import parse_qs

try:  # the kernel's unsent-byte count for a socket (Linux)
    from fcntl import ioctl
    from termios import TIOCOUTQ
except ImportError:  # pragma: no cover - non-POSIX platforms
    ioctl = TIOCOUTQ = None

from repro.errors import ConfigError
from repro.feed.payloads import FeedResponse, PayloadStore
from repro.feed.server import DELTA, FULL, NOT_MODIFIED, FeedServer
from repro.feed.snapshot import FeedSnapshot
from repro.telemetry import current as current_telemetry
from repro.telemetry.metrics import Histogram

#: Latency histogram bucket upper bounds, in milliseconds.
LATENCY_BOUNDARIES_MS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)

_REASONS = {200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 431: "Request Header Fields Too Large"}

#: Largest unterminated request head a connection may buffer — the line
#: limit of stdlib ``http.server``.  Past it the client gets a 431 and
#: the connection is closed.
MAX_HEAD_BYTES = 65536

#: Seconds a connection may go without sending a byte or draining a
#: response byte before it is evicted and counted in ``stalled_timeouts``.
IDLE_TIMEOUT_S = 30.0

#: Responses answered from one read are written in chunks of about this
#: many bytes, so ``pause_writing`` can stop a pipelined burst between
#: chunks instead of after all of it.
_WRITE_CHUNK_BYTES = 65536

#: How often (seconds) each replica refreshes its stats-mailbox file.
STATS_PUBLISH_INTERVAL = 0.5


def latency_summary(histogram: Histogram) -> dict:
    """The ``/v1/stats`` view of one latency histogram.

    Percentiles are bucket-upper-bound estimates — exact enough for a
    runbook; the benchmark measures client-side.
    """
    count = histogram.count

    def percentile(fraction: float) -> float | None:
        """Upper bound of the bucket holding the ``fraction`` quantile."""
        if not count:
            return None
        rank = fraction * count
        seen = 0
        for index, bucket in enumerate(histogram.bucket_counts):
            seen += bucket
            if seen >= rank and bucket:
                if index < len(histogram.boundaries):
                    return histogram.boundaries[index]
                return float("inf")
        return float("inf")

    return {
        "count": count,
        "mean_ms": round(histogram.total / count, 6) if count else None,
        "p50_ms": percentile(0.50),
        "p95_ms": percentile(0.95),
        "p99_ms": percentile(0.99),
    }


def _latency_histogram(status: str) -> Histogram:
    return Histogram(f"feed.http.latency_ms.{status}", LATENCY_BOUNDARIES_MS)


def _compose(status_code: int, body: bytes, extra_headers: tuple[tuple[str, str], ...]) -> bytes:
    """One complete HTTP/1.1 response, keep-alive, fully rendered."""
    lines = [f"HTTP/1.1 {status_code} {_REASONS[status_code]}"]
    lines.append("Content-Type: application/json")
    lines.append(f"Content-Length: {len(body)}")
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def _answer_wire(answer: FeedResponse) -> tuple[bytes, bytes]:
    """(identity, gzip) wire responses for one stored answer."""
    headers = (
        ("ETag", answer.content_hash),
        ("X-Feed-Version", str(answer.version)),
        ("X-Feed-Status", answer.status),
    )
    code = 304 if answer.status == NOT_MODIFIED else 200
    identity = _compose(code, answer.payload, headers)
    if answer.gzip_payload is None:
        return identity, identity
    encoded = headers + (("Content-Encoding", "gzip"),)
    return identity, _compose(code, answer.gzip_payload, encoded)


class _Wire:
    """The precomputed wire table for one feed history tip."""

    def __init__(self, store: PayloadStore) -> None:
        self.tip = store.tip
        #: Every answer a poll of the tip can get, by client index, with
        #: its identity and encoded wire bytes.
        self.answers: dict[int | None, tuple[FeedResponse, bytes, bytes]] = {
            client: (answer, *_answer_wire(answer))
            for client, answer in store.answer_row(store.tip).items()
        }
        self.bad_since = _compose(
            400, b'{"error":"since must be an integer version"}\n', ()
        )
        self.not_found = _compose(404, b'{"error":"unknown path"}\n', ())
        self.bad_method = _compose(405, b'{"error":"GET only"}\n', ())
        self.body_not_allowed = _compose(
            400, b'{"error":"GET requests carry no body"}\n', (("Connection", "close"),)
        )
        self.ambiguous_head = _compose(
            400, b'{"error":"ambiguous request head"}\n', (("Connection", "close"),)
        )
        self.head_too_large = _compose(
            431,
            b'{"error":"request head too large"}\n',
            (("Connection", "close"),),
        )
        self.healthz = _compose(200, b'{"status":"ok"}\n', ())


class FeedProtocol(asyncio.Protocol):
    """Pipelined keep-alive HTTP/1.1 over the precomputed wire table.

    One idle timer per connection: ``data_received`` only stamps the
    loop time, and the timer re-arms for the remaining time until
    :data:`IDLE_TIMEOUT_S` passes with no byte received and no response
    byte drained; then the connection is evicted.  While the transport's
    write buffer is above its high mark (``pause_writing``), reading is
    paused and buffered pipelined heads wait unanswered.
    """

    __slots__ = ("engine", "loop", "transport", "buffer", "paused", "timer",
                 "last_activity", "written", "drained")

    def __init__(self, engine: "AsyncFeedServer", loop: asyncio.AbstractEventLoop) -> None:
        self.engine = engine
        self.loop = loop
        self.transport: asyncio.Transport | None = None
        self.buffer = b""
        self.paused = False
        self.timer: asyncio.TimerHandle | None = None
        self.last_activity = 0.0
        #: Response bytes handed to the transport, and how many of them
        #: had left its buffer and the kernel's at the last idle check.
        self.written = 0
        self.drained = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        self.last_activity = self.loop.time()
        self.timer = self.loop.call_later(IDLE_TIMEOUT_S, self._check_idle)

    def connection_lost(self, exc: Exception | None) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if exc is not None or self.buffer:
            # Dropped mid-request (or with unread pipelined input).
            self.engine.client_disconnects += 1

    def data_received(self, data: bytes) -> None:
        self.last_activity = self.loop.time()
        self.buffer = self.buffer + data if self.buffer else data
        if not self.paused:
            self._answer()

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.last_activity = self.loop.time()
        self._answer()
        if not self.paused and not self.transport.is_closing():
            self.transport.resume_reading()

    def _answer(self) -> None:
        """Answer the buffered complete heads, in write chunks, until
        the buffer holds only an unterminated tail or writing pauses."""
        transport = self.transport
        buffer = self.buffer
        start = 0
        responses: list[bytes] = []
        pending = 0
        close = False
        while True:
            head_end = buffer.find(b"\r\n\r\n", start)
            if head_end < 0:
                break
            response, close = self.engine.respond(buffer[start:head_end])
            start = head_end + 4
            responses.append(response)
            if close:
                start = len(buffer)
                break
            pending += len(response)
            if pending >= _WRITE_CHUNK_BYTES:
                self.written += pending
                transport.write(b"".join(responses))
                responses = []
                pending = 0
                if self.paused:
                    self.buffer = buffer[start:]
                    return
        buffer = buffer[start:] if start else buffer
        if len(buffer) > MAX_HEAD_BYTES:
            responses.append(self.engine.reject_oversized_head())
            buffer = b""
            close = True
        self.buffer = buffer
        if responses:
            blob = b"".join(responses)
            self.written += len(blob)
            transport.write(blob)
            if close:
                transport.close()

    def _check_idle(self) -> None:
        """The idle timer: re-arm while the connection shows activity,
        evict it once :data:`IDLE_TIMEOUT_S` passed without any."""
        transport = self.transport
        if transport.is_closing():
            return
        now = self.loop.time()
        drained = self.written - transport.get_write_buffer_size()
        sock = transport.get_extra_info("socket")
        if sock is not None and ioctl is not None:
            try:  # bytes the kernel still holds for the peer count as unsent
                drained -= int.from_bytes(ioctl(sock.fileno(), TIOCOUTQ, bytes(4)), sys.byteorder)
            except OSError:
                pass
        if drained > self.drained:
            self.drained = drained
            self.last_activity = now
        remaining = self.last_activity + IDLE_TIMEOUT_S - now
        if remaining > 0:
            self.timer = self.loop.call_later(remaining, self._check_idle)
            return
        self.timer = None
        self.engine.stalled_timeouts += 1
        # Evicted, not dropped by the client: unanswered input does not
        # count as a disconnect, and abort() discards the unread
        # responses close() would wait forever to flush.
        self.buffer = b""
        transport.abort()


class AsyncFeedServer:
    """The serving engine: wire table + request dispatch + accounting.

    One instance per replica.  ``respond`` runs on the event loop, so
    plain-int counters need no locks; the shared :class:`ServerStats`
    protocol-level counters go through the feed server's lock to stay
    exact when embedders also poll it in-process.
    """

    def __init__(self, feed: FeedServer, stats_dir: str | None = None) -> None:
        self.feed = feed
        self.wire = _Wire(feed.payloads)
        self.client_disconnects = 0
        self.bad_requests = 0
        self.stalled_timeouts = 0
        #: Shared mailbox directory for cross-replica stats (None when
        #: the front-end runs a single replica with no mailbox).
        self.stats_dir = stats_dir
        self.latency: dict[str, Histogram] = {
            status: _latency_histogram(status)
            for status in (FULL, DELTA, NOT_MODIFIED, "error")
        }

    # ------------------------------------------------------------ dispatch

    def respond(self, head: bytes) -> tuple[bytes, bool]:
        """Map one request head to (wire bytes, close-after?)."""
        started = time.perf_counter()
        wire = self.wire
        try:
            line_end = head.find(b"\r\n")
            request_line = head if line_end < 0 else head[:line_end]
            parts = request_line.split(b" ")
            if len(parts) < 3:
                return self._finish("error", wire.bad_method, started, True)
            method, target, _version = parts[0], parts[1], parts[2]
            if method != b"GET":
                return self._finish("error", wire.bad_method, started, False)
            headers = head[line_end + 2:] if line_end >= 0 else b""
            lowered = headers.lower()
            if self._ambiguous(head, lowered):
                self.bad_requests += 1
                return self._finish("error", wire.ambiguous_head, started, True)
            if b"content-length" in lowered or b"transfer-encoding" in lowered:
                # A GET body would be parsed as the next request: refuse
                # any Transfer-Encoding and a Content-Length other than 0.
                length = self._header(headers, lowered, b"content-length") or b"0"
                encoded = self._header(headers, lowered, b"transfer-encoding") is not None
                if encoded or length.strip(b"0"):
                    self.bad_requests += 1
                    return self._finish("error", wire.body_not_allowed, started, True)
            connection = self._header(headers, lowered, b"connection")
            close = connection is not None and connection.lower() == b"close"
            path, _, query = target.partition(b"?")
            if path == b"/v1/feed":
                return self._feed_response(query, headers, lowered, started, close)
            if path == b"/healthz":
                return self._finish(None, wire.healthz, started, close)
            if path == b"/v1/stats":
                return self._finish(
                    None, self._stats_response(query), started, close
                )
            return self._finish("error", wire.not_found, started, close)
        except Exception:
            self.bad_requests += 1
            return self._finish("error", wire.bad_since, started, True)

    def _feed_response(
        self, query: bytes, headers: bytes, lowered: bytes, started: float, close: bool
    ) -> tuple[bytes, bool]:
        wire = self.wire
        client_hash = self._header(headers, lowered, b"if-none-match")
        accept_gzip = b"gzip" in (
            self._header(headers, lowered, b"accept-encoding") or b""
        )
        since = None
        if query:
            values = parse_qs(query.decode("latin-1")).get("since")
            if values:
                try:
                    since = int(values[0])
                except ValueError:
                    self.bad_requests += 1
                    return self._finish("error", wire.bad_since, started, close)
        hash_text = client_hash.decode("latin-1") if client_hash is not None else None
        client = self.feed.payloads.client_index(since, hash_text, wire.tip)
        answer, identity, encoded = wire.answers[client]
        self._account(answer.status, answer.size)
        return self._finish(
            answer.status, encoded if accept_gzip else identity, started, close
        )

    def reject_oversized_head(self) -> bytes:
        """Count and answer a request head past :data:`MAX_HEAD_BYTES`."""
        self.bad_requests += 1
        return self.wire.head_too_large

    # ---------------------------------------------------------- accounting

    def _account(self, status: str, size: int) -> None:
        self.feed.stats.record(status, size)
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("feed.http.requests")
            telemetry.inc(f"feed.http.payload_bytes.{status}", size)

    def _finish(
        self, status: str | None, response: bytes, started: float, close: bool
    ) -> tuple[bytes, bool]:
        if status is not None:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self.latency[status].observe(elapsed_ms)
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.observe(
                    f"feed.http.latency_ms.{status}",
                    elapsed_ms,
                    boundaries=LATENCY_BOUNDARIES_MS,
                )
        return response, close

    @staticmethod
    def _ambiguous(head: bytes, lowered: bytes) -> bool:
        """Whether another HTTP parser could read ``head`` differently.

        Bare-LF line ends, obs-fold continuation lines and a repeated
        ``Content-Length`` or ``Host`` all let a proxy in front of the
        feed and this engine disagree on where a request ends or whom it
        is for, so they are refused rather than guessed at (RFC 9112
        §2.2, §5.2, §6.3).  ``lowered`` is the lowercased header block.
        """
        if head.count(b"\n") != head.count(b"\r\n"):
            return True
        if b"\n " in head or b"\n\t" in head:
            return True
        for name in (b"content-length:", b"host:"):
            if lowered.startswith(name) + lowered.count(b"\n" + name) > 1:
                return True
        return False

    @staticmethod
    def _header(headers: bytes, lowered: bytes, name: bytes) -> bytes | None:
        """Case-insensitive single-header lookup in a raw header block
        (``lowered`` is ``headers.lower()``, computed once per request)."""
        needle = name + b":"
        start = 0
        while True:
            index = lowered.find(needle, start)
            if index < 0:
                return None
            if index == 0 or lowered[index - 1:index] == b"\n":
                end = headers.find(b"\r\n", index)
                if end < 0:
                    end = len(headers)
                return headers[index + len(needle):end].strip()
            start = index + 1

    def _stats_response(self, query: bytes = b"") -> bytes:
        scope = None
        if query:
            values = parse_qs(query.decode("latin-1")).get("scope")
            scope = values[0] if values else None
        if scope == "cluster":
            stats = self.cluster_stats()
        else:
            stats = self.feed.stats.as_dict()
            stats["client_disconnects"] = self.client_disconnects
            stats["bad_requests"] = self.bad_requests
            stats["stalled_timeouts"] = self.stalled_timeouts
            stats["replica_pid"] = os.getpid()
            stats["latency_ms"] = {
                status: latency_summary(histogram)
                for status, histogram in sorted(self.latency.items())
            }
        body = json.dumps(stats, sort_keys=True).encode("utf-8") + b"\n"
        return _compose(200, body, ())

    # ------------------------------------------------------- cluster stats

    def stats_record(self) -> dict:
        """This replica's raw mergeable counters (the mailbox payload)."""
        return {
            "counters": self.feed.stats.as_dict()
            | {
                "client_disconnects": self.client_disconnects,
                "bad_requests": self.bad_requests,
                "stalled_timeouts": self.stalled_timeouts,
            },
            "replica_pid": os.getpid(),
            "latency_ms": {
                status: histogram.snapshot()
                for status, histogram in sorted(self.latency.items())
            },
        }

    def publish_stats(self) -> None:
        """Atomically refresh this replica's stats-mailbox file.

        tmp-write + ``os.replace`` keeps every read torn-free: a sibling
        replica merging the mailbox sees either the previous complete
        snapshot or this one, never a partial file.
        """
        if self.stats_dir is None:
            return
        path = os.path.join(self.stats_dir, f"replica-{os.getpid()}.json")
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.stats_record(), handle)
            os.replace(tmp, path)
        except OSError:
            pass  # mailbox gone mid-shutdown; stats are best-effort

    def start_stats_publisher(self, loop: asyncio.AbstractEventLoop) -> None:
        """Begin periodic mailbox refreshes on this replica's loop."""
        if self.stats_dir is None:
            return

        def tick() -> None:
            self.publish_stats()
            loop.call_later(STATS_PUBLISH_INTERVAL, tick)

        tick()

    def cluster_stats(self) -> dict:
        """Merge this replica's live counters with every sibling's mailbox.

        Own counters come from memory (always current); siblings are as
        fresh as their last mailbox publish (≤ the publish interval old).
        """
        own = self.stats_record()
        records = [own]
        if self.stats_dir is not None:
            own_name = f"replica-{own['replica_pid']}.json"
            for path in sorted(
                glob.glob(os.path.join(self.stats_dir, "replica-*.json"))
            ):
                if os.path.basename(path) == own_name:
                    continue
                try:
                    with open(path, encoding="utf-8") as handle:
                        records.append(json.load(handle))
                except (OSError, ValueError):
                    continue  # replica died mid-replace or file vanished
        counters: dict[str, int] = {}
        merged = {status: _latency_histogram(status) for status in self.latency}
        for record in records:
            for key, value in record["counters"].items():
                counters[key] = counters.get(key, 0) + value
            for status, histogram in record["latency_ms"].items():
                merged.setdefault(status, _latency_histogram(status)).merge(histogram)
        return counters | {
            "scope": "cluster",
            "replicas": len(records),
            "replica_pids": sorted(record["replica_pid"] for record in records),
            "latency_ms": {
                status: latency_summary(histogram)
                for status, histogram in sorted(merged.items())
            },
        }


# ---------------------------------------------------------------- replicas


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if hasattr(socket, "SO_REUSEPORT"):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(1024)
    sock.setblocking(False)
    return sock


def _serve_replica_process(
    records: list[dict],
    host: str,
    port: int,
    checkpoint_interval: int,
    stats_dir: str | None = None,
) -> None:
    """A forked worker replica: rebuild everything, serve until killed.

    The replica is constructed **independently** from the snapshot
    records — nothing is inherited from the parent's wire table — which
    is exactly why byte-identity across replicas is a determinism
    theorem rather than an implementation accident.
    """
    feed = FeedServer(
        (FeedSnapshot.from_record(record) for record in records),
        checkpoint_interval=checkpoint_interval,
    )
    engine = AsyncFeedServer(feed, stats_dir=stats_dir)
    loop = asyncio.new_event_loop()
    sock = _reuseport_socket(host, port)
    server = loop.run_until_complete(
        loop.create_server(lambda: FeedProtocol(engine, loop), sock=sock)
    )
    engine.start_stats_publisher(loop)
    try:
        loop.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        loop.close()


class AsyncFeedHTTPServer:
    """The asyncio feed front-end, optionally replicated via SO_REUSEPORT.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`);
    the context manager serves from a background thread.  ``workers=N`` accepts on the same port from N replicas:
    this process plus ``N-1`` forked workers, each with its own event
    loop, wire table, and kernel accept queue.  ``/v1/stats`` answers
    with the handling replica's own counters;
    ``/v1/stats?scope=cluster`` merges every replica's mailbox file
    into one fleet-wide view (see the module docstring).
    """

    def __init__(
        self,
        feed: FeedServer,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if workers > 1 and not hasattr(socket, "SO_REUSEPORT"):
            raise ConfigError(
                "worker replicas need SO_REUSEPORT, which this platform "
                "lacks; run with workers=1"
            )
        self.feed = feed
        self._stats_dir = (
            tempfile.mkdtemp(prefix="seacma-feed-stats-")
            if workers > 1
            else None
        )
        self.engine = AsyncFeedServer(feed, stats_dir=self._stats_dir)
        self.workers = workers
        self._host = host
        self._sock = _reuseport_socket(host, port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._children: list[multiprocessing.Process] = []
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def _spawn_children(self) -> None:
        if self.workers <= 1 or self._children:
            return
        records = [snapshot.to_record() for snapshot in self.feed.snapshots]
        context = multiprocessing.get_context("fork")
        for _ in range(self.workers - 1):
            child = context.Process(
                target=_serve_replica_process,
                args=(
                    records,
                    self._host,
                    self.port,
                    self.feed.payloads.checkpoint_interval,
                    self._stats_dir,
                ),
                daemon=True,
            )
            child.start()
            self._children.append(child)

    async def _serve(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        server = await loop.create_server(
            lambda: FeedProtocol(self.engine, loop), sock=self._sock
        )
        self.engine.start_stats_publisher(loop)
        self._started.set()
        async with server:
            await server.serve_forever()

    def serve_forever(self) -> None:
        """Serve until interrupted (the CLI foreground mode)."""
        self._spawn_children()
        try:
            asyncio.run(self._serve())
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            self._stop_children()

    def start_background(self) -> "AsyncFeedHTTPServer":
        """Serve from a daemon thread (tests and benchmarks)."""
        self._spawn_children()

        def runner() -> None:
            try:
                asyncio.run(self._serve())
            except asyncio.CancelledError:
                pass

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise ConfigError("asyncio feed server failed to start listening")
        return self

    def shutdown(self) -> None:
        self._stop_children()
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(
                lambda: [task.cancel() for task in asyncio.all_tasks(loop)]
            )
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        try:
            self._sock.close()
        except OSError:
            pass
        if self._stats_dir is not None:
            shutil.rmtree(self._stats_dir, ignore_errors=True)
            self._stats_dir = None
            self.engine.stats_dir = None

    def _stop_children(self) -> None:
        for child in self._children:
            child.terminate()
        for child in self._children:
            child.join(timeout=5)
        self._children = []

    def __enter__(self) -> "AsyncFeedHTTPServer":
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
