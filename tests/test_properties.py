"""Property-based tests (hypothesis) for core data structures and
invariants: URL round-trips, e2LD algebra, dhash metric properties,
DBSCAN axioms, domain pools and the event scheduler."""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import EventScheduler, SimClock
from repro.cluster.dbscan import DBSCAN_NOISE, dbscan
from repro.cluster.incremental import IncrementalDBSCAN
from repro.dom.page import VisualSpec
from repro.imaging.dhash import DHASH_BITS, dhash128
from repro.imaging.distance import hamming
from repro.imaging.image import render_visual, resize_area
from repro.rng import derive
from repro.urlkit.psl import e2ld, public_suffix
from repro.urlkit.url import parse_url
from repro.urlkit.domains import ThrowawayDomainPool

# ----------------------------------------------------------- strategies

label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8).filter(
    lambda s: not s.startswith("-") and not s.endswith("-")
)
hostname = st.lists(label, min_size=1, max_size=4).map(".".join)
url_path = st.lists(label, min_size=0, max_size=3).map(lambda parts: "/" + "/".join(parts))
hash128 = st.integers(min_value=0, max_value=2**128 - 1)


class TestUrlProperties:
    @given(host=hostname, path=url_path)
    def test_parse_str_roundtrip(self, host, path):
        raw = f"http://{host}{path}"
        assert str(parse_url(raw)) == raw

    @given(host=hostname)
    def test_parse_is_idempotent(self, host):
        url = parse_url(f"http://{host}/")
        assert parse_url(str(url)) == url

    @given(host=hostname)
    def test_e2ld_is_suffix_of_host(self, host):
        domain = e2ld(host)
        assert host == domain or host.endswith("." + domain)

    @given(host=hostname)
    def test_e2ld_idempotent(self, host):
        assert e2ld(e2ld(host)) == e2ld(host)

    @given(host=hostname)
    def test_public_suffix_is_suffix_of_e2ld(self, host):
        domain = e2ld(host)
        suffix = public_suffix(host)
        assert domain == suffix or domain.endswith("." + suffix)

    @given(host=hostname, sub=label)
    def test_subdomain_preserves_e2ld(self, host, sub):
        assert e2ld(f"{sub}.{host}") in (e2ld(host), f"{sub}.{host}")


class TestHammingProperties:
    @given(a=hash128)
    def test_identity(self, a):
        assert hamming(a, a) == 0

    @given(a=hash128, b=hash128)
    def test_symmetry(self, a, b):
        assert hamming(a, b) == hamming(b, a)

    @given(a=hash128, b=hash128, c=hash128)
    def test_triangle_inequality(self, a, b, c):
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    @given(a=hash128, b=hash128)
    def test_bounded_by_bits(self, a, b):
        assert 0 <= hamming(a, b) <= DHASH_BITS


class TestDhashProperties:
    @given(key=st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
           variant=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_render_deterministic_and_hash_stable(self, key, variant):
        spec = VisualSpec(f"prop/{key}", variant=variant)
        assert dhash128(render_visual(spec)) == dhash128(render_visual(spec))

    @given(st.integers(min_value=0, max_value=255))
    def test_constant_image_hashes_to_zero(self, level):
        image = np.full((72, 128), level, dtype=np.uint8)
        assert dhash128(image) == 0

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_resize_preserves_range(self, rows):
        rng = np.random.default_rng(rows)
        image = rng.integers(0, 256, size=(72, 128)).astype(np.uint8)
        out = resize_area(image, rows, 17)
        assert out.min() >= image.min() - 1e-9
        assert out.max() <= image.max() + 1e-9


class TestNeighborIndexProperties:
    @given(
        hashes=st.lists(hash128, min_size=1, max_size=40),
        radius=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=40, deadline=None)
    def test_index_matches_brute_force(self, hashes, radius):
        index = IncrementalDBSCAN(radius, 1)
        index.add_batch(hashes)
        for probe in range(len(hashes)):
            expected = sorted(
                j for j, value in enumerate(hashes)
                if hamming(hashes[probe], value) <= radius
            )
            assert index.neighbors_of(probe) == expected


class TestDbscanProperties:
    @given(
        points=st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=40),
        radius=st.integers(min_value=1, max_value=50),
        min_pts=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_labels_well_formed(self, points, radius, min_pts):
        def neighbors_of(i):
            return [j for j in range(len(points)) if abs(points[i] - points[j]) <= radius]

        labels = dbscan(len(points), neighbors_of, min_pts)
        assert len(labels) == len(points)
        clusters = sorted({l for l in labels if l != DBSCAN_NOISE})
        assert clusters == list(range(len(clusters)))  # consecutive ids
        # Every cluster has at least one core point (>= min_pts neighbours).
        for cluster_id in clusters:
            members = [i for i, l in enumerate(labels) if l == cluster_id]
            assert any(len(neighbors_of(i)) >= min_pts for i in members)

    @given(
        points=st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=30),
        radius=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_min_pts_one_means_no_noise(self, points, radius):
        def neighbors_of(i):
            return [j for j in range(len(points)) if abs(points[i] - points[j]) <= radius]

        labels = dbscan(len(points), neighbors_of, min_pts=1)
        assert DBSCAN_NOISE not in labels

    @given(
        points=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=30),
        radius=st.integers(min_value=1, max_value=30),
        min_pts=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_points_share_fate(self, points, radius, min_pts):
        points = points + [points[0]]  # duplicate the first point

        def neighbors_of(i):
            return [j for j in range(len(points)) if abs(points[i] - points[j]) <= radius]

        labels = dbscan(len(points), neighbors_of, min_pts)
        assert labels[0] == labels[-1]


class TestDeriveProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32), labels=st.lists(label, max_size=4))
    def test_stable(self, seed, labels):
        assert derive(seed, *labels) == derive(seed, *labels)

    @given(seed=st.integers(min_value=0, max_value=2**32), a=label, b=label)
    def test_distinct_labels_rarely_collide(self, seed, a, b):
        if a != b:
            assert derive(seed, a) != derive(seed, b)


class TestDomainPoolProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        queries=st.lists(st.floats(min_value=0, max_value=30 * 86400, allow_nan=False), min_size=1, max_size=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_queries_consistent(self, seed, queries):
        pool = ThrowawayDomainPool(seed, "prop", min_lifetime=3600, max_lifetime=7200)
        for t in sorted(queries):
            domain = pool.active_window(t)[0]
            assert pool.activation_time(domain) <= t
        domains = pool.all_domains()
        assert len(domains) == len(set(domains))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_historical_answers_stable(self, seed):
        pool = ThrowawayDomainPool(seed, "prop2", min_lifetime=3600, max_lifetime=7200)
        early = pool.active_window(1000.0)[0]
        pool.active_window(10 * 86400.0)
        assert pool.active_window(1000.0)[0] == early


class TestSchedulerProperties:
    @given(times=st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_fires_in_nondecreasing_time_order(self, times):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        fired = []
        for t in times:
            scheduler.schedule_at(t, fired.append)
        scheduler.run_until(1000.0)
        assert fired == sorted(fired)
        assert len(fired) == len(times)
