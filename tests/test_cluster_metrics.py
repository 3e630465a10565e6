"""Tests for Hamming distances and the incremental index's neighbour search."""

import random

import pytest

from repro.cluster.incremental import IncrementalDBSCAN
from repro.errors import ClusteringError
from repro.imaging.distance import hamming


def index_of(hashes, radius):
    """An ``IncrementalDBSCAN`` holding ``hashes``, for neighbour queries."""
    index = IncrementalDBSCAN(radius, 1)
    index.add_batch(hashes)
    return index


class TestPairwiseMatrix:
    def test_small_matrix(self):
        hashes = [0b0000, 0b0001, 0b1111]
        assert hamming(hashes[0], hashes[0]) == 0
        assert hamming(hashes[0], hashes[1]) == 1
        assert hamming(hashes[0], hashes[2]) == 4
        for a in hashes:
            for b in hashes:
                assert hamming(a, b) == hamming(b, a)

    def test_matches_scalar_hamming_on_random_population(self):
        rng = random.Random(7)
        hashes = [rng.getrandbits(128) for _ in range(40)]
        for a in hashes:
            for b in hashes:
                assert hamming(a, b) == bin(a ^ b).count("1")

    def test_empty_population(self):
        index = index_of([], 12)
        assert len(index) == 0
        assert index.labels() == []

    def test_dtype_and_extremes(self):
        # All 128 bits differ between 0 and the all-ones hash.
        ones = (1 << 128) - 1
        assert hamming(0, ones) == hamming(ones, 0) == 128
        assert isinstance(hamming(0, ones), int)


def brute_force_neighbors(hashes, index, radius):
    return sorted(
        j for j, value in enumerate(hashes) if hamming(hashes[index], value) <= radius
    )


class TestHammingNeighborIndex:
    def make_population(self, seed=0, count=300):
        rng = random.Random(seed)
        hashes = []
        # Clustered population: 10 centers, small perturbations.
        centers = [rng.getrandbits(128) for _ in range(10)]
        for _ in range(count):
            center = rng.choice(centers)
            flips = rng.randint(0, 6)
            value = center
            for _ in range(flips):
                value ^= 1 << rng.randrange(128)
            hashes.append(value)
        return hashes

    def test_matches_brute_force_radius_12(self):
        hashes = self.make_population()
        index = index_of(hashes, 12)
        for probe in range(0, len(hashes), 17):
            assert index.neighbors_of(probe) == brute_force_neighbors(hashes, probe, 12)

    def test_matches_brute_force_radius_0(self):
        hashes = self.make_population(seed=1)
        index = index_of(hashes, 0)
        for probe in range(0, len(hashes), 23):
            assert index.neighbors_of(probe) == brute_force_neighbors(hashes, probe, 0)

    def test_large_radius_falls_back_to_scan(self):
        hashes = self.make_population(seed=2, count=60)
        index = index_of(hashes, 40)
        for probe in range(0, len(hashes), 7):
            assert sorted(index.neighbors_of(probe)) == brute_force_neighbors(
                hashes, probe, 40
            )

    def test_self_always_included(self):
        hashes = [0, 2**127, 12345]
        index = index_of(hashes, 5)
        for i in range(3):
            assert i in index.neighbors_of(i)

    def test_negative_radius_rejected(self):
        with pytest.raises(ClusteringError):
            IncrementalDBSCAN(-1, 1)


class TestLinearScanFallback:
    """radius_bits >= 16 leaves the exact-bucketing regime (a 16-bit
    difference can touch all 16 words), so the index must scan."""

    population = TestHammingNeighborIndex().make_population

    def test_boundary_radius_16_uses_scan_and_is_exact(self):
        hashes = self.population(seed=3, count=80)
        index = index_of(hashes, 16)
        assert not index._exact_bucketing
        for probe in range(0, len(hashes), 5):
            assert index.neighbors_of(probe) == brute_force_neighbors(
                hashes, probe, 16
            )

    def test_radius_15_still_buckets(self):
        index = index_of([0, 1], 15)
        assert index._exact_bucketing

    def test_scan_results_sorted_and_include_self(self):
        hashes = self.population(seed=4, count=50)
        index = index_of(hashes, 20)
        for probe in range(0, len(hashes), 11):
            neighbors = index.neighbors_of(probe)
            assert neighbors == sorted(neighbors)
            assert probe in neighbors

    def test_huge_radius_returns_everything(self):
        hashes = self.population(seed=5, count=30)
        index = index_of(hashes, 128)
        assert index.neighbors_of(0) == list(range(len(hashes)))

    def test_scan_matches_bucketed_answers_at_shared_radius(self):
        # Same population, radius just inside vs outside the bucketing
        # regime: any point's 15-bit neighbours must be a subset of its
        # 16-bit neighbours, and both must agree with brute force.
        hashes = self.population(seed=6, count=60)
        bucketed = index_of(hashes, 15)
        scanned = index_of(hashes, 16)
        for probe in range(0, len(hashes), 9):
            inner = set(bucketed.neighbors_of(probe))
            outer = set(scanned.neighbors_of(probe))
            assert inner <= outer
            assert sorted(inner) == brute_force_neighbors(hashes, probe, 15)
            assert sorted(outer) == brute_force_neighbors(hashes, probe, 16)
