"""IncrementalDBSCAN: batch equivalence under any insertion schedule."""

import random

import pytest

from repro.cluster.dbscan import dbscan
from repro.cluster.incremental import IncrementalDBSCAN
from repro.errors import ClusteringError
from repro.imaging.distance import hamming


def mixture(seed: int, groups: int = 25) -> list[int]:
    """Clustered 128-bit hashes with per-group jitter plus stragglers."""
    rng = random.Random(seed)
    values = []
    for _ in range(groups):
        center = rng.getrandbits(128)
        for _ in range(rng.randrange(1, 8)):
            value = center
            for _ in range(rng.randrange(0, 10)):
                value ^= 1 << rng.randrange(128)
            values.append(value)
    return values


def brute_force_neighbors(values: list[int], radius: int) -> list[list[int]]:
    """Every point's within-radius neighbours (incl. itself), by full scan."""
    return [
        [j for j, other in enumerate(values) if hamming(value, other) <= radius]
        for value in values
    ]


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_labels_match_batch_dbscan(self, seed):
        values = mixture(seed)
        incremental = IncrementalDBSCAN(12, 3)
        for value in values:
            incremental.add(value)
        neighbors = brute_force_neighbors(values, 12)
        assert incremental.labels() == dbscan(len(values), neighbors.__getitem__, 3)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_adjacency_matches_batch_index(self, seed):
        values = mixture(seed)
        incremental = IncrementalDBSCAN(12, 3)
        incremental.add_batch(values)
        neighbors = brute_force_neighbors(values, 12)
        for i in range(len(values)):
            assert incremental.neighbors_of(i) == neighbors[i]

    def test_any_batch_split_matches_one_shot(self):
        values = mixture(99)
        one_shot = IncrementalDBSCAN(12, 3)
        one_shot.add_batch(values)
        for split in (1, 3, len(values)):
            staged = IncrementalDBSCAN(12, 3)
            for start in range(0, len(values), split):
                staged.add_batch(values[start : start + split])
                staged.labels()  # interleaved queries must not disturb state
            assert staged.labels() == one_shot.labels()

    def test_linear_fallback_radius(self):
        # radius >= 16 words leaves the pigeonhole regime; the fallback
        # scan must still match batch DBSCAN.
        values = mixture(5, groups=8)
        incremental = IncrementalDBSCAN(20, 2)
        incremental.add_batch(values)
        neighbors = brute_force_neighbors(values, 20)
        assert incremental.labels() == dbscan(len(values), neighbors.__getitem__, 2)


class TestIncrementalBehaviour:
    def test_noise_rescued_by_later_arrival(self):
        base = 0
        near = 1  # 1 bit away
        far = 1 << 64 | 1 << 65  # far from base
        clustering = IncrementalDBSCAN(1, 2)
        clustering.add_batch([base, near, far])
        assert clustering.labels() == [0, 0, -1]
        clustering.add(far ^ 1)  # a neighbour turns the noise point core
        assert clustering.labels() == [0, 0, 1, 1]

    def test_empty(self):
        assert IncrementalDBSCAN(12, 3).labels() == []

    def test_negative_radius_rejected(self):
        with pytest.raises(ClusteringError):
            IncrementalDBSCAN(-1, 3)
