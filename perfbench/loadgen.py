"""An open-loop HTTP load generator that measures the server, not itself.

One process, two keep-alive connections, no asyncio.  Every request's
bytes are prebuilt.  ``run_open_loop`` offers requests on a fixed
schedule: on each pass of the loop all requests that have come due are
appended to their connection's buffer and written together.
Responses are framed by their known lengths (each request kind's exact
reference response was verified during set-up), so reading one costs a
slice and a comparison.  Each request is timed from its *due* instant,
not from when it was written, so a stall of the server or of the
generator itself shows up as latency on every request it delays.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

_clock = time.perf_counter

#: Seconds to wait past the last due instant before giving up on replies.
#: Requests still unanswered then count as failed, not as wrong: a rate
#: past the server's saturation leaves a backlog that may outlast this.
DRAIN_SECONDS = 30.0
#: Closer than this to the next due instant the loop polls instead of
#: sleeping: a sleeping generator wakes late by the kernel's timer slack
#: and scheduling delay, which would be measured as server latency.
SPIN_SECONDS = 0.002


@dataclass
class LadderResult:
    """Per-request outcome of one open-loop run."""

    due: list[float]
    #: Instant the last response byte arrived (None: never answered).
    done: list[float | None]
    #: Instant the request was written to its connection buffer.
    sent: list[float]
    wrong: int = 0
    bytes_received: int = 0
    cpu_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    def latencies_ms(self, start: int = 0, stop: int | None = None) -> list[float]:
        stop = len(self.due) if stop is None else stop
        return [
            (done - due) * 1000.0
            for due, done in zip(self.due[start:stop], self.done[start:stop])
            if done is not None
        ]

    def late_ms(self) -> list[float]:
        return [(sent - due) * 1000.0 for due, sent in zip(self.due, self.sent)]

    @property
    def unanswered(self) -> int:
        return sum(1 for done in self.done if done is None)


class _Connection:
    __slots__ = ("sock", "out", "inbuf", "pending")

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        #: Indices of requests written and not yet answered, in order.
        self.pending: deque[int] = deque()


def _frame(conn: _Connection, kinds, responses, expected_len, done, arrived) -> tuple[int, int]:
    """Consume every complete response in ``conn.inbuf``.

    Each right response marks its request ``done`` at ``arrived``.
    Returns the counts of right and wrong responses.
    """
    inbuf = conn.inbuf
    pending = conn.pending
    offset = right = wrong = 0
    while pending:
        request = pending[0]
        kind = kinds[request]
        length = expected_len[kind]
        if len(inbuf) - offset < length:
            break
        if inbuf[offset:offset + length] == responses[kind]:
            done[request] = arrived
            right += 1
        else:
            wrong += 1
        offset += length
        pending.popleft()
    if offset:
        del inbuf[:offset]
    return right, wrong


def run_open_loop(
    address: tuple[str, int],
    schedule: list[tuple[float, int]],
    requests: list[bytes],
    responses: list[bytes],
    connections: int = 2,
) -> LadderResult:
    """Offer ``schedule`` — (due offset seconds, request kind) — open-loop.

    ``requests[kind]`` is sent and ``responses[kind]`` must come back
    byte for byte.  Request ``i`` goes to connection ``i % connections``.
    """
    conns = [_Connection(address) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    total = len(schedule)
    kinds = [kind for _, kind in schedule]
    expected_len = [len(response) for response in responses]
    cpu_started = time.process_time()
    start = _clock() + 0.05
    due = [start + offset for offset, _ in schedule]
    result = LadderResult(due=due, done=[None] * total, sent=[0.0] * total)
    done = result.done
    sent_at = result.sent
    answered = 0
    index = 0
    give_up = (due[-1] if due else start) + DRAIN_SECONDS
    try:
        while answered + result.wrong < total:
            now = _clock()
            if now > give_up:
                break
            while index < total and due[index] <= now:
                conn = conns[index % connections]
                conn.out += requests[kinds[index]]
                conn.pending.append(index)
                sent_at[index] = now
                index += 1
            for conn in conns:
                if conn.out:
                    try:
                        written = conn.sock.send(conn.out)
                    except BlockingIOError:
                        written = 0
                    del conn.out[:written]
            timeout = due[index] - _clock() if index < total else 0.01
            if timeout < SPIN_SECONDS:
                timeout = 0.0
            for key, _ in selector.select(timeout - SPIN_SECONDS if timeout else 0.0):
                conn = key.data
                try:
                    data = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                arrived = _clock()
                if not data:
                    result.errors.append("server closed a connection")
                    return result
                result.bytes_received += len(data)
                conn.inbuf += data
                right, wrong = _frame(conn, kinds, responses, expected_len, done, arrived)
                answered += right
                result.wrong += wrong
    finally:
        result.cpu_s = time.process_time() - cpu_started
        selector.close()
        for conn in conns:
            conn.sock.close()
    return result
