"""Incremental DBSCAN over streaming dhash populations.

Batch DBSCAN clusters all screenshot hashes at once; the streaming
pipeline receives them in crawl-order batches as the farm emits them.
:class:`IncrementalDBSCAN` maintains the expensive part of DBSCAN — the
fixed-radius neighbour structure — incrementally: each inserted hash is
bucketed by 8-bit words and its neighbour edges are added to a growing
adjacency list in O(neighbours) per insert, instead of recomputing the
O(n²) neighbourhood from scratch per batch.  If two 128-bit hashes
differ in at most ``radius`` bits, the differing bits touch at most
``radius`` of the 16 words, so for ``radius < 16`` at least one word is
identical (pigeonhole) and probing the new hash's 16 word-buckets finds
every true neighbour.  The paper's ``eps = 0.1`` radius is 12 bits,
inside that exact regime; larger radii fall back to a linear scan.

**Equivalence guarantee.**  For any insertion order, the adjacency list
after *n* inserts is exactly the brute-force within-radius neighbour
list of the same *n* hashes: ``adjacency[i]`` is sorted ascending and
includes ``i`` itself (``i``'s own neighbours are found at insert time;
later arrivals ``j > i`` within the radius are appended in increasing
``j``, preserving sort order).  :meth:`labels` then replays Ester et
al.'s expansion (:func:`repro.cluster.dbscan.dbscan`) over that adjacency
in insertion order — a cheap O(V + E) sweep — so the labelling is
*bit-identical* to a batch run over the same hashes in the same order,
whatever batch schedule fed the instance.  Cluster growth, merging and
border-point adoption across batches all fall out of replaying the
expansion on the updated adjacency.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.dbscan import dbscan
from repro.errors import ClusteringError
from repro.imaging.dhash import DHASH_BITS
from repro.imaging.distance import hamming
from repro.telemetry import current as current_telemetry

_WORDS = 16
_WORD_BITS = DHASH_BITS // _WORDS  # 8


def _words_of(value: int) -> tuple[int, ...]:
    mask = (1 << _WORD_BITS) - 1
    return tuple((value >> (shift * _WORD_BITS)) & mask for shift in range(_WORDS))


class IncrementalDBSCAN:
    """DBSCAN whose point set grows one batch at a time.

    >>> index = IncrementalDBSCAN(radius_bits=1, min_pts=2)
    >>> for value in (0b0001, 0b0011, 0b1111_0000):
    ...     _ = index.add(value)
    >>> index.labels()
    [0, 0, -1]
    >>> _ = index.add(0b1111_0001)  # arrives later, rescues the noise point
    >>> index.labels()
    [0, 0, 1, 1]
    """

    def __init__(self, radius_bits: int, min_pts: int) -> None:
        if radius_bits < 0:
            raise ClusteringError("radius must be non-negative")
        if min_pts < 1:
            raise ClusteringError("min_pts must be at least 1")
        self._radius = radius_bits
        self._min_pts = min_pts
        self._hashes: list[int] = []
        self._adjacency: list[list[int]] = []
        # radius >= word count defeats the pigeonhole argument; fall back
        # to linear probing there.
        self._exact_bucketing = radius_bits < _WORDS
        self._buckets: list[dict[int, list[int]]] = [dict() for _ in range(_WORDS)]
        self._labels: list[int] | None = []

    # ------------------------------------------------------------ mutation

    def add(self, value: int) -> int:
        """Insert one hash; returns its point index (insertion order)."""
        index = len(self._hashes)
        neighbors = self._neighbors_among_existing(value)
        for other in neighbors:
            self._adjacency[other].append(index)
        neighbors.append(index)  # neighbours_of(i) includes i itself
        self._hashes.append(value)
        self._adjacency.append(neighbors)
        if self._exact_bucketing:
            for word_index, word in enumerate(_words_of(value)):
                self._buckets[word_index].setdefault(word, []).append(index)
        self._labels = None
        current_telemetry().inc("cluster.points")
        return index

    def add_batch(self, values: Iterable[int]) -> list[int]:
        """Insert many hashes; returns their point indices."""
        return [self.add(value) for value in values]

    def _neighbors_among_existing(self, value: int) -> list[int]:
        if not self._exact_bucketing:
            return [
                other
                for other, existing in enumerate(self._hashes)
                if hamming(value, existing) <= self._radius
            ]
        candidates: set[int] = set()
        for word_index, word in enumerate(_words_of(value)):
            candidates.update(self._buckets[word_index].get(word, ()))
        return sorted(
            other
            for other in candidates
            if hamming(value, self._hashes[other]) <= self._radius
        )

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._hashes)

    def neighbors_of(self, index: int) -> list[int]:
        """Current within-radius neighbours of point ``index`` (incl. self)."""
        return list(self._adjacency[index])

    def labels(self) -> list[int]:
        """Cluster labels for every inserted point, batch-identical.

        Cached between inserts; each call after new points costs one
        O(V + E) expansion sweep over the maintained adjacency.
        """
        if self._labels is None:
            with current_telemetry().span(
                "cluster.dbscan", attrs={"points": len(self._hashes)}
            ):
                self._labels = dbscan(
                    len(self._hashes), self._adjacency.__getitem__, self._min_pts
                )
        return list(self._labels)
