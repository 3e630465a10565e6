"""Unit tests for the versioned blocklist feed (``repro.feed``).

Covers the wire format (snapshots, deltas, hashes), the publisher's
observer behaviour, the server protocol (full/delta/not-modified, the
memoized answers, time-scoped requests), the simulated client fleet, and
the HTTP front-end.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import sys
import threading
import time
import urllib.request

import pytest

from repro.clock import HOUR, MINUTE
from repro.errors import ConfigError, StoreError
from repro.feed import (
    DELTA,
    FULL,
    NOT_MODIFIED,
    FeedClientFleet,
    FeedDelta,
    FeedEntry,
    FeedPublisher,
    FeedRequest,
    FeedServer,
    FeedSnapshot,
    FleetConfig,
    apply_delta,
    compute_delta,
    lag_table,
    network_of_clusters,
    state_hash,
)
from repro.feed import asyncserve, payloads
from repro.feed import fleet as fleet_module
from repro.feed.asyncserve import AsyncFeedHTTPServer, AsyncFeedServer, FeedProtocol
from repro.store.memory import MemoryStore
from tests.test_feed_serving import build_history, connected, make_server


def entry(domain: str, first: float = 0.0, last: float = 0.0, **kwargs) -> FeedEntry:
    return FeedEntry(
        domain=domain,
        cluster_id=kwargs.get("cluster_id", 1),
        category=kwargs.get("category", "Fake Software"),
        network=kwargs.get("network", "adnet-a"),
        first_seen=first,
        last_seen=last or first,
    )


def snapshot(version: int, at: float, *domains: str) -> FeedSnapshot:
    # Entry timestamps are fixed (not ``at``) so an unchanged domain is
    # byte-identical across versions — deltas stay minimal.
    return FeedSnapshot.build(
        version=version, published_at=at, entries=[entry(d) for d in domains]
    )


class TestSnapshot:
    def test_build_sorts_entries_by_domain(self):
        snap = snapshot(1, 0.0, "zebra.com", "apple.com", "mango.com")
        assert snap.domains() == ["apple.com", "mango.com", "zebra.com"]

    def test_duplicate_domains_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            snapshot(1, 0.0, "a.com", "a.com")

    def test_content_hash_is_pure_function_of_entries(self):
        one = snapshot(1, 0.0, "a.com", "b.com")
        two = snapshot(7, 999.0, "b.com", "a.com")
        assert one.content_hash == two.content_hash  # metadata excluded

    def test_canonical_bytes_stable_and_compact(self):
        snap = snapshot(1, 0.0, "a.com")
        payload = snap.canonical_bytes()
        assert payload == snap.canonical_bytes()
        assert b", " not in payload and b": " not in payload  # compact separators
        record = json.loads(payload)
        assert record["format"] == "seacma-feed/1"
        assert list(record) == sorted(record)  # sorted keys

    def test_record_round_trip_reverifies_hash(self):
        snap = snapshot(3, 100.0, "a.com", "b.com")
        again = FeedSnapshot.from_record(snap.to_record())
        assert again == snap

    def test_damaged_record_rejected(self):
        record = snapshot(1, 0.0, "a.com").to_record()
        record["entries"][0]["domain"] = "evil.com"
        with pytest.raises(ConfigError, match="hash check"):
            FeedSnapshot.from_record(record)


class TestDelta:
    def test_delta_categorizes_changes(self):
        old = FeedSnapshot.build(1, 0.0, [entry("keep.com"), entry("gone.com"),
                                          entry("stale.com", 0.0)])
        new = FeedSnapshot.build(
            2,
            HOUR,
            [entry("keep.com"), entry("fresh.com", HOUR),
             entry("stale.com", 0.0, HOUR)],
        )
        delta = compute_delta(old, new)
        assert [e.domain for e in delta.added] == ["fresh.com"]
        assert [e.domain for e in delta.updated] == ["stale.com"]
        assert delta.removed == ("gone.com",)

    def test_apply_delta_reconstructs_target_state(self):
        old = snapshot(1, 0.0, "a.com", "b.com")
        new = snapshot(2, HOUR, "b.com", "c.com")
        delta = compute_delta(old, new)
        state = apply_delta(old.entry_map(), delta)
        assert sorted(state) == ["b.com", "c.com"]
        assert state_hash(state) == new.content_hash == delta.to_hash

    def test_backwards_delta_rejected(self):
        with pytest.raises(ConfigError, match="forward"):
            compute_delta(snapshot(2, HOUR, "a.com"), snapshot(1, 0.0, "a.com"))

    def test_delta_record_round_trip(self):
        delta = compute_delta(
            snapshot(1, 0.0, "a.com"), snapshot(2, HOUR, "b.com")
        )
        assert FeedDelta.from_record(delta.to_record()) == delta


class _FakeMilkedDomain:
    def __init__(self, domain, cluster_id=1, category=None, discovered_at=0.0):
        self.domain = domain
        self.cluster_id = cluster_id
        self.category = category
        self.discovered_at = discovered_at


class TestPublisher:
    def test_publishes_at_round_boundaries(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        publisher.domain_discovered(_FakeMilkedDomain("a.com"), 0.0)
        publisher.round_complete(0.0)
        assert publisher.latest.version == 1
        assert publisher.latest.domains() == ["a.com"]

    def test_rate_limited_to_interval(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        publisher.domain_discovered(_FakeMilkedDomain("a.com"), 0.0)
        publisher.round_complete(0.0)
        publisher.domain_discovered(_FakeMilkedDomain("b.com"), 10 * MINUTE)
        publisher.round_complete(10 * MINUTE)  # too soon — held back
        assert len(publisher.snapshots) == 1
        publisher.round_complete(HOUR)  # interval elapsed — published
        assert len(publisher.snapshots) == 2
        assert publisher.latest.domains() == ["a.com", "b.com"]

    def test_quiet_rounds_publish_nothing(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        publisher.domain_discovered(_FakeMilkedDomain("a.com"), 0.0)
        publisher.round_complete(0.0)
        for hour in range(1, 4):
            publisher.round_complete(hour * HOUR)
        assert len(publisher.snapshots) == 1

    def test_milking_finished_flushes_pending_changes(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        publisher.domain_discovered(_FakeMilkedDomain("a.com"), 0.0)
        publisher.round_complete(0.0)
        publisher.domain_discovered(_FakeMilkedDomain("b.com"), 10 * MINUTE)
        publisher.milking_finished(20 * MINUTE)
        assert len(publisher.snapshots) == 2

    def test_domain_seen_refreshes_last_seen(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        record = _FakeMilkedDomain("a.com")
        publisher.domain_discovered(record, 0.0)
        publisher.round_complete(0.0)
        publisher.domain_seen(record, 2 * HOUR)
        publisher.round_complete(2 * HOUR)
        assert publisher.latest.entries[0].last_seen == 2 * HOUR
        assert publisher.latest.entries[0].first_seen == 0.0

    def test_network_attribution_applied(self):
        publisher = FeedPublisher(
            network_of_cluster={5: "adnet-x"}, interval_minutes=60.0
        )
        publisher.domain_discovered(_FakeMilkedDomain("a.com", cluster_id=5), 0.0)
        publisher.domain_discovered(_FakeMilkedDomain("b.com", cluster_id=9), 0.0)
        publisher.milking_finished(0.0)
        by_domain = publisher.latest.entry_map()
        assert by_domain["a.com"].network == "adnet-x"
        assert by_domain["b.com"].network is None


class TestServer:
    def history(self):
        return [
            snapshot(1, 0 * HOUR, "a.com"),
            snapshot(2, 1 * HOUR, "a.com", "b.com"),
            snapshot(3, 2 * HOUR, "a.com", "b.com", "c.com"),
        ]

    def test_empty_history_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            FeedServer([])

    def test_unordered_history_rejected(self):
        with pytest.raises(ConfigError, match="version-ordered"):
            FeedServer([snapshot(2, HOUR, "a.com"), snapshot(1, 0.0, "a.com")])

    def test_fresh_client_gets_full_snapshot(self):
        server = FeedServer(self.history())
        response = server.handle(FeedRequest())
        assert response.status == FULL
        assert response.version == 3
        assert json.loads(response.payload)["kind"] == "snapshot"

    def test_stale_client_gets_delta(self):
        server = FeedServer(self.history())
        response = server.handle(FeedRequest(client_version=1))
        assert response.status == DELTA
        payload = json.loads(response.payload)
        assert payload["from_version"] == 1 and payload["to_version"] == 3
        assert [e["domain"] for e in payload["added"]] == ["b.com", "c.com"]

    def test_current_client_not_modified_by_version_and_by_hash(self):
        server = FeedServer(self.history())
        latest = server.latest
        by_version = server.handle(FeedRequest(client_version=3))
        by_hash = server.handle(FeedRequest(client_hash=latest.content_hash))
        assert by_version.status == by_hash.status == NOT_MODIFIED
        assert by_version.payload == by_hash.payload == b""

    def test_unknown_client_version_falls_back_to_full(self):
        server = FeedServer(self.history())
        response = server.handle(FeedRequest(client_version=99))
        assert response.status == FULL

    def test_scoped_answer_equals_truncated_history(self):
        # A poll scoped to the sim time of version t is answered exactly
        # as a server holding only versions 1..t answers it unscoped.
        history = build_history()
        server = make_server(history)
        for tip, latest in enumerate(history):
            truncated = make_server(history[: tip + 1])
            states = [FeedRequest(), FeedRequest(client_version=999)]
            states.append(
                FeedRequest(client_version=latest.version, client_hash="sha256:wrong")
            )
            for snap in history:
                states.append(FeedRequest(client_version=snap.version))
                states.append(
                    FeedRequest(
                        client_version=snap.version, client_hash=snap.content_hash
                    )
                )
            for request in states:
                scoped = server.handle(request, now=latest.published_at)
                assert scoped == truncated.handle(request), (tip, request)

    def test_each_answer_is_computed_once(self, monkeypatch):
        calls: list[tuple[int, int]] = []
        original = payloads.compute_delta

        def counting(old, new):
            calls.append((old.version, new.version))
            return original(old, new)

        monkeypatch.setattr(payloads, "compute_delta", counting)
        history = build_history()
        server = make_server(history)
        built = len(calls)
        assert built > 0  # the tip row is built at construction
        for since in [None, 0, 999, *(snap.version for snap in history)]:
            server.handle(FeedRequest(client_version=since))
        assert len(calls) == built  # unscoped polls compute nothing
        report = FeedClientFleet(server).run()
        replayed = len(calls)
        assert report.polls > 0 and replayed > built
        FeedClientFleet(server).run()
        assert len(calls) == replayed  # every (client, tip) answer is memoized

    def test_concurrent_scoped_polls_agree(self):
        # Threads racing on the answer memo get what one thread gets.
        history = build_history()
        requests = [
            (FeedRequest(client_version=snap.version), latest.published_at)
            for latest in history
            for snap in history
        ]
        reference = make_server(history)
        expected = [reference.handle(request, now=now) for request, now in requests]
        server = make_server(history)
        results: list[list] = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append([server.handle(request, now=now) for request, now in requests])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(answers == expected for answers in results)

    def test_corrupted_client_at_latest_version_gets_full_repair(self):
        # Regression: a client claiming the latest version but holding
        # the wrong content (hash mismatch) was answered 304 forever.
        server = FeedServer(self.history())
        latest = server.latest
        response = server.handle(
            FeedRequest(client_version=latest.version, client_hash="corrupt")
        )
        assert response.status == FULL
        assert response.payload == latest.canonical_bytes()

    def test_stale_hash_at_latest_version_gets_full_repair(self):
        # Hash from an *older* snapshot at the latest version number is
        # still a contradiction: repair, don't 304.
        server = FeedServer(self.history())
        stale_hash = server.snapshots[0].content_hash
        response = server.handle(
            FeedRequest(client_version=server.latest.version, client_hash=stale_hash)
        )
        assert response.status == FULL

    def test_time_scoped_requests_see_only_published_history(self):
        server = FeedServer(self.history())
        early = server.handle(FeedRequest(), now=0.0)
        assert early.status == FULL and early.version == 1
        nothing = server.handle(FeedRequest(), now=-1.0)
        assert nothing.status == NOT_MODIFIED and nothing.version == 0

    def test_from_store_round_trip(self):
        from repro.store.base import FEED

        store = MemoryStore(run_id="t")
        store.extend(FEED, (snap.to_record() for snap in self.history()))
        server = FeedServer.from_store(store)
        assert [snap.version for snap in server.snapshots] == [1, 2, 3]

    def test_from_store_without_feed_raises_store_error(self):
        with pytest.raises(StoreError, match="no feed snapshots"):
            FeedServer.from_store(MemoryStore(run_id="t"))

    def test_stats_account_every_request(self):
        server = FeedServer(self.history())
        server.handle(FeedRequest())
        server.handle(FeedRequest(client_version=1))
        server.handle(FeedRequest(client_version=3))
        stats = server.stats
        assert stats.requests == 3
        assert stats.full_responses == 1
        assert stats.delta_responses == 1
        assert stats.not_modified_responses == 1
        assert stats.bytes_served > 0


class _NeverGsb:
    def listed_time(self, domain):
        return None


class TestFleet:
    def history(self):
        return [
            snapshot(1, 0 * HOUR, "a.com"),
            snapshot(2, 2 * HOUR, "a.com", "b.com"),
        ]

    def test_every_cohort_converges_to_latest(self):
        server = FeedServer(self.history())
        fleet = FeedClientFleet(
            server,
            FleetConfig(cohorts=3, clients_per_cohort=10, poll_interval_minutes=30.0),
        )
        report = fleet.run()
        assert len(report.protection) == 2
        assert report.modeled_clients == 30
        assert report.modeled_requests == report.polls * 10

    def test_fleet_is_deterministic(self):
        def run():
            server = FeedServer(self.history())
            config = FleetConfig(
                cohorts=4,
                clients_per_cohort=10,
                poll_interval_minutes=30.0,
                fault_rate=0.2,
                seed=3,
            )
            return FeedClientFleet(server, config, gsb=_NeverGsb()).run()

        one, two = run(), run()
        assert one.polls == two.polls
        assert one.failed_attempts == two.failed_attempts
        assert one.protection == two.protection

    def test_poll_jitter_keeps_poll_count_and_protection(self):
        def run(jitter):
            server = FeedServer(self.history())
            config = FleetConfig(
                cohorts=4,
                clients_per_cohort=10,
                poll_interval_minutes=30.0,
                poll_jitter_fraction=jitter,
                seed=5,
            )
            return FeedClientFleet(server, config, gsb=_NeverGsb()).run()

        plain, jittered = run(0.0), run(0.5)
        assert jittered.polls == plain.polls
        assert len(jittered.protection) == len(plain.protection) == 2
        # The jittered timeline genuinely differs from the grid one.
        assert any(
            a.mean_protected_at != b.mean_protected_at
            for a, b in zip(plain.protection, jittered.protection)
        )

    def test_poll_jitter_is_deterministic(self):
        def run():
            server = FeedServer(self.history())
            config = FleetConfig(
                cohorts=3,
                clients_per_cohort=10,
                poll_interval_minutes=30.0,
                poll_jitter_fraction=0.4,
                seed=9,
            )
            return FeedClientFleet(server, config, gsb=_NeverGsb()).run()

        one, two = run(), run()
        assert one.polls == two.polls
        assert one.protection == two.protection
        assert one.lag_samples_minutes == two.lag_samples_minutes

    def test_poll_jitter_fraction_validated(self):
        with pytest.raises(ValueError, match="poll_jitter_fraction"):
            FleetConfig(poll_jitter_fraction=1.0)
        with pytest.raises(ValueError, match="poll_jitter_fraction"):
            FleetConfig(poll_jitter_fraction=-0.1)

    def test_faults_delay_but_do_not_lose_protection(self):
        server = FeedServer(self.history())
        config = FleetConfig(
            cohorts=4,
            clients_per_cohort=10,
            poll_interval_minutes=30.0,
            fault_rate=0.4,
            seed=1,
        )
        report = FeedClientFleet(server, config).run()
        assert report.failed_attempts > 0
        assert len(report.protection) == 2  # still fully protected

    def test_protection_never_precedes_publication(self):
        server = FeedServer(self.history())
        report = FeedClientFleet(
            server, FleetConfig(cohorts=3, clients_per_cohort=10)
        ).run()
        for item in report.protection:
            assert item.first_protected_at >= item.published_at

    def test_each_distinct_transition_is_verified_once(self, monkeypatch):
        # Cohorts apply the same deltas to the same states; the to_hash
        # check runs once per distinct (pre-state, delta) transition.
        server = make_server(build_history())
        handle = server.handle
        deltas = []

        def logged(request, now=None):
            response = handle(request, now=now)
            if response.status == DELTA:
                deltas.append((request.client_hash, response.payload))
            return response

        hashed = []

        def counting(state):
            hashed.append(len(state))
            return state_hash(state)

        server.handle = logged
        monkeypatch.setattr(fleet_module, "state_hash", counting)
        report = FeedClientFleet(server).run()
        assert len(hashed) == len(set(deltas)) < len(deltas)
        # Every cohort still ends protected against every domain ever fed.
        fed = {entry.domain for snap in server.snapshots for entry in snap.entries}
        assert {item.domain for item in report.protection} == fed

    def test_divergent_delta_raises_naming_cohort_and_versions(self):
        server = FeedServer(self.history())
        handle = server.handle

        def tampered(request, now=None):
            response = handle(request, now=now)
            if response.status != DELTA:
                return response
            record = json.loads(response.payload)
            record["to_hash"] = "0" * len(record["to_hash"])
            return dataclasses.replace(response, payload=json.dumps(record).encode())

        server.handle = tampered
        fleet = FeedClientFleet(server, FleetConfig(cohorts=1, clients_per_cohort=1))
        with pytest.raises(ConfigError, match=r"^cohort 0 diverged applying delta v1->v2;"):
            fleet.run()

    def test_empty_window_rejected(self):
        server = FeedServer(self.history())
        fleet = FeedClientFleet(server, FleetConfig(cohorts=1, clients_per_cohort=1))
        with pytest.raises(ConfigError, match="empty"):
            fleet.run(start=10 * HOUR, until=10 * HOUR)

    def test_lag_table_has_all_row_last(self):
        server = FeedServer(self.history())
        report = FeedClientFleet(
            server, FleetConfig(cohorts=2, clients_per_cohort=10)
        ).run()
        rows = lag_table(report)
        assert rows[-1].category == "ALL"
        assert rows[-1].domains == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(cohorts=0)
        with pytest.raises(ValueError):
            FleetConfig(poll_interval_minutes=0.0)
        with pytest.raises(ValueError):
            FleetConfig(fault_rate=1.0)
        with pytest.raises(ValueError):
            FleetConfig(max_attempts=0)


class TestNetworkOfClusters:
    def test_plurality_vote_with_deterministic_tiebreak(self, pipeline_run):
        _, _, result = pipeline_run
        mapping = network_of_clusters(result.discovery, result.attribution)
        cluster_ids = {c.cluster_id for c in result.discovery.seacma_campaigns}
        assert set(mapping) == cluster_ids
        # Every value is a known network key or None.
        keys = set(result.attribution.by_network)
        assert all(value is None or value in keys for value in mapping.values())

    def test_no_attribution_yields_empty_map(self, pipeline_run):
        _, _, result = pipeline_run
        assert network_of_clusters(result.discovery, None) == {}


class TestHTTP:
    def history(self):
        return [
            snapshot(1, 0 * HOUR, "a.com"),
            snapshot(2, 1 * HOUR, "a.com", "b.com"),
        ]

    def fetch(self, url, headers=None):
        request = urllib.request.Request(url, headers=headers or {})
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def test_full_delta_and_conditional_requests(self):
        server = FeedServer(self.history())
        with AsyncFeedHTTPServer(server) as httpd:
            status, headers, body = self.fetch(f"{httpd.url}/v1/feed")
            assert status == 200
            assert headers["X-Feed-Status"] == FULL
            payload = json.loads(body)
            assert payload["version"] == 2

            status, headers, body = self.fetch(f"{httpd.url}/v1/feed?since=1")
            assert status == 200
            assert headers["X-Feed-Status"] == DELTA

            etag = headers["ETag"]
            status, headers, body = self.fetch(
                f"{httpd.url}/v1/feed", headers={"If-None-Match": etag}
            )
            assert status == 304
            assert body == b""

    def test_stats_healthz_and_errors(self):
        server = FeedServer(self.history())
        with AsyncFeedHTTPServer(server) as httpd:
            status, _, body = self.fetch(f"{httpd.url}/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"

            self.fetch(f"{httpd.url}/v1/feed")
            status, _, body = self.fetch(f"{httpd.url}/v1/stats")
            assert status == 200
            assert json.loads(body)["requests"] >= 1

            status, _, _ = self.fetch(f"{httpd.url}/v1/feed?since=banana")
            assert status == 400
            status, _, _ = self.fetch(f"{httpd.url}/nope")
            assert status == 404


REQUEST = b"GET /v1/feed HTTP/1.1\r\nHost: x\r\n\r\n"


def engine() -> AsyncFeedServer:
    return AsyncFeedServer(FeedServer(build_history()))


def full_wire(server: AsyncFeedServer) -> bytes:
    """The identity wire bytes of the fresh-client full answer."""
    store = server.feed.payloads
    return server.wire.answers[store.client_index(None, None, store.tip)][1]


def stats_of(httpd: AsyncFeedHTTPServer) -> dict:
    with urllib.request.urlopen(f"{httpd.url}/v1/stats") as response:
        return json.loads(response.read())


class TestHTTPHardening:
    """Disconnecting and stalling clients are counted, never crashes."""

    def test_send_counts_client_disconnects(self):
        # The peer hangs up while a response is still queued: the
        # transport reports the error through connection_lost.
        for error in (BrokenPipeError, ConnectionResetError):
            server = engine()
            protocol, transport, loop = connected(server, high_water=1024)
            protocol.data_received(REQUEST * 64)
            assert transport.buffered > 0
            protocol.connection_lost(error())  # must not raise
            assert server.client_disconnects == 1
            assert server.stalled_timeouts == 0
            assert all(timer.cancelled for timer in loop.timers)

    def test_send_counts_stalled_timeouts(self):
        # The peer stops reading mid-response: writing pauses, nothing
        # drains, and the idle timer evicts the connection.
        server = engine()
        protocol, transport, loop = connected(server, high_water=1024)
        protocol.data_received(REQUEST * 64)
        assert not transport.reading
        loop.advance(asyncserve.IDLE_TIMEOUT_S + 1)
        assert transport.aborted
        assert server.stalled_timeouts == 1
        protocol.connection_lost(None)  # the eviction is not a disconnect
        assert server.client_disconnects == 0

    def test_send_intact_writer_counts_nothing(self):
        server = engine()
        protocol, transport, loop = connected(server)
        protocol.data_received(REQUEST)
        assert transport.written.startswith(b"HTTP/1.1 200 OK\r\n")
        transport.drain(transport.buffered)
        protocol.connection_lost(None)
        loop.advance(10 * asyncserve.IDLE_TIMEOUT_S)
        assert not transport.aborted
        assert server.client_disconnects == 0
        assert server.stalled_timeouts == 0
        assert server.bad_requests == 0

    def test_handle_swallows_late_disconnects(self):
        # A reset arriving after the response went out, or a hang-up
        # with pipelined input still unanswered, is counted, not raised.
        server = engine()
        protocol, transport, _ = connected(server)
        protocol.data_received(REQUEST)
        transport.drain(transport.buffered)
        protocol.connection_lost(ConnectionResetError())
        protocol, transport, _ = connected(server)
        protocol.data_received(b"GET /v1/feed HTTP/1.1\r\nHo")
        protocol.connection_lost(None)
        assert server.client_disconnects == 2
        assert server.stalled_timeouts == 0

    def test_log_error_counts_stdlib_read_timeouts(self):
        # A read timeout — half a request head, then silence — is a
        # stall; a rejected request is not.
        server = engine()
        protocol, transport, loop = connected(server)
        protocol.data_received(b"GET /v1/feed HTTP/1.1\r\n")
        loop.advance(asyncserve.IDLE_TIMEOUT_S / 2)
        assert not transport.aborted
        loop.advance(asyncserve.IDLE_TIMEOUT_S)
        assert transport.aborted
        assert server.stalled_timeouts == 1
        protocol, transport, loop = connected(server)
        protocol.data_received(b"GET /v1/feed?since=x HTTP/1.1\r\n\r\n")
        protocol.data_received(b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n")
        assert transport.closed and server.bad_requests == 2
        assert server.stalled_timeouts == 1  # only timeouts count

    def test_stats_expose_transport_counters(self):
        server = FeedServer([snapshot(1, 0.0, "a.com")])
        with AsyncFeedHTTPServer(server) as httpd:
            body = stats_of(httpd)
            record = httpd.engine.stats_record()["counters"]
            cluster = httpd.engine.cluster_stats()
        for stats in (body, record, cluster):
            assert stats["client_disconnects"] == 0
            assert stats["stalled_timeouts"] == 0

    def test_stalled_reader_is_timed_out_and_counted(self, monkeypatch):
        monkeypatch.setattr(asyncserve, "IDLE_TIMEOUT_S", 0.2)
        server = FeedServer([snapshot(1, 0.0, "a.com")])
        with AsyncFeedHTTPServer(server) as httpd:
            # Connect and go silent: the idle timer must evict us and
            # bump the stall counter.
            stalled = socket.create_connection(("127.0.0.1", httpd.port))
            try:
                stalled.settimeout(5.0)
                assert stalled.recv(1) == b""  # closed by the server
                assert stats_of(httpd)["stalled_timeouts"] == 1
            finally:
                stalled.close()

    def test_request_timeout_reaches_the_handler_class(self, monkeypatch):
        # The module constant is read when each connection arms its timer.
        monkeypatch.setattr(asyncserve, "IDLE_TIMEOUT_S", 7.5)
        protocol, transport, loop = connected(engine())
        assert [timer.when for timer in loop.timers] == [7.5]
        loop.advance(7.4)
        assert not transport.aborted
        loop.advance(0.2)
        assert transport.aborted

    def test_paused_writing_stops_answering_pipelined_heads(self):
        server = engine()
        protocol, transport, _ = connected(server, high_water=65536)
        protocol.data_received(REQUEST * 20_000)
        response = len(full_wire(server))
        # One write chunk past the high mark, then no more answers.
        assert transport.peak < 65536 + 65536 + response
        assert not transport.reading and protocol.paused
        answered = transport.written.count(b"HTTP/1.1 200 OK")
        assert len(protocol.buffer) == (20_000 - answered) * len(REQUEST)
        # Draining resumes answering; the whole burst is answered in order.
        while not transport.reading:
            transport.drain(transport.buffered)
            assert transport.peak < 65536 + 65536 + response
        assert transport.written.count(b"HTTP/1.1 200 OK") == 20_000
        assert protocol.buffer == b"" and server.bad_requests == 0

    def test_draining_reader_is_never_evicted(self):
        server = engine()
        protocol, transport, loop = connected(server, high_water=65536)
        protocol.data_received(REQUEST * 2_000)
        step = asyncserve.IDLE_TIMEOUT_S / 4
        for _ in range(200):  # fifty idle periods of slow draining
            loop.advance(step)
            transport.drain(4096)
        assert not transport.aborted and server.stalled_timeouts == 0
        while transport.buffered or not transport.reading:
            transport.drain(1 << 20)
        assert transport.written.count(b"HTTP/1.1 200 OK") == 2_000

    def test_non_reading_pipeliner_is_bounded_and_evicted(self, monkeypatch):
        monkeypatch.setattr(asyncserve, "IDLE_TIMEOUT_S", 0.5)
        peaks: list[int] = []
        for name in ("data_received", "resume_writing"):
            original = getattr(FeedProtocol, name)

            def measured(protocol, *args, _original=original):
                _original(protocol, *args)
                peaks.append(protocol.transport.get_write_buffer_size())

            monkeypatch.setattr(FeedProtocol, name, measured)
        with AsyncFeedHTTPServer(FeedServer(build_history())) as httpd:
            sock = socket.create_connection(("127.0.0.1", httpd.port))

            def flood():
                try:
                    sock.sendall(REQUEST * 20_000)
                except OSError:
                    pass  # evicted mid-send

            sender = threading.Thread(target=flood, daemon=True)
            sender.start()
            try:
                deadline = time.monotonic() + 20
                while stats_of(httpd)["stalled_timeouts"] < 1:
                    assert time.monotonic() < deadline, "never evicted"
                    time.sleep(0.05)
            finally:
                sock.close()
                sender.join(timeout=5)
        assert peaks and max(peaks) < 1 << 20

    def test_slow_reader_is_never_evicted(self, monkeypatch):
        monkeypatch.setattr(asyncserve, "IDLE_TIMEOUT_S", 0.3)
        requests = 600
        with AsyncFeedHTTPServer(FeedServer(build_history())) as httpd:
            expected = requests * len(full_wire(httpd.engine))
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32768)
            sock.connect(("127.0.0.1", httpd.port))
            sock.settimeout(5.0)
            with sock:
                sock.sendall(REQUEST * requests)
                started, received = time.monotonic(), 0
                while received < expected:
                    time.sleep(0.05)  # reads in small sips, never stops
                    chunk = sock.recv(65536)
                    assert chunk, "evicted while draining"
                    received += len(chunk)
                elapsed = time.monotonic() - started
                stats = stats_of(httpd)
        assert received == expected
        assert elapsed > 3 * asyncserve.IDLE_TIMEOUT_S
        assert stats["stalled_timeouts"] == 0
