"""DBSCAN, implemented from scratch.

The paper clusters distinct ``(dhash, e2LD)`` pairs with DBSCAN over the
Hamming distance between dhash values, using ``eps = 0.1`` (normalized)
and ``MinPts = 3``.  This implementation follows Ester et al.'s original
formulation: core points have at least ``min_pts`` neighbours (inclusive
of themselves) within ``eps``; clusters are density-connected sets; border
points join the first cluster that reaches them; everything else is noise.

The neighbour search is delegated to a pluggable function; the
pipeline passes the bucketed adjacency that
:class:`~repro.cluster.incremental.IncrementalDBSCAN` maintains.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ClusteringError

#: Label assigned to noise points.
DBSCAN_NOISE = -1

NeighborFn = Callable[[int], Sequence[int]]


def dbscan(
    count: int,
    neighbors_of: NeighborFn,
    min_pts: int,
) -> list[int]:
    """Run DBSCAN over ``count`` points.

    ``neighbors_of(i)`` must return every index within ``eps`` of point
    ``i`` **including i itself**.  Returns a label per point: cluster ids
    are consecutive integers from 0; noise points get
    :data:`DBSCAN_NOISE`.

    >>> points = [0, 1, 2, 100, 101, 102, 500]
    >>> nbrs = lambda i: [j for j in range(7) if abs(points[i] - points[j]) <= 3]
    >>> dbscan(7, nbrs, min_pts=3)
    [0, 0, 0, 1, 1, 1, -1]
    """
    if count < 0:
        raise ClusteringError("count must be non-negative")
    if min_pts < 1:
        raise ClusteringError("min_pts must be at least 1")
    UNVISITED = -2
    labels = [UNVISITED] * count
    cluster_id = 0
    for point in range(count):
        if labels[point] != UNVISITED:
            continue
        seeds = list(neighbors_of(point))
        if len(seeds) < min_pts:
            labels[point] = DBSCAN_NOISE
            continue
        # Expand a new cluster from this core point.
        labels[point] = cluster_id
        queue = [index for index in seeds if index != point]
        head = 0
        while head < len(queue):
            neighbor = queue[head]
            head += 1
            if labels[neighbor] == DBSCAN_NOISE:
                labels[neighbor] = cluster_id  # border point adoption
                continue
            if labels[neighbor] != UNVISITED:
                continue
            labels[neighbor] = cluster_id
            reachable = list(neighbors_of(neighbor))
            if len(reachable) >= min_pts:
                queue.extend(
                    index for index in reachable
                    if labels[index] in (UNVISITED, DBSCAN_NOISE)
                )
        cluster_id += 1
    return labels


def clusters_from_labels(labels: Sequence[int]) -> dict[int, list[int]]:
    """Group point indices by cluster label, excluding noise.

    >>> clusters_from_labels([0, 0, -1, 1])
    {0: [0, 1], 1: [3]}
    """
    groups: dict[int, list[int]] = {}
    for index, label in enumerate(labels):
        if label == DBSCAN_NOISE:
            continue
        groups.setdefault(label, []).append(index)
    return groups
