"""Micro-benchmarks for the pipeline's computational kernels.

These track the cost of the hot paths — screenshot rendering, dhash,
DBSCAN over ``IncrementalDBSCAN``'s adjacency — so regressions in the
substrate are visible independently of the end-to-end benches.
"""

import itertools

import pytest

from repro.cluster.dbscan import dbscan
from repro.cluster.incremental import IncrementalDBSCAN
from repro.dom.page import VisualSpec
from repro.imaging.dhash import dhash128
from repro.imaging.image import render_visual
from repro.rng import rng_for

_fresh = itertools.count(1_000_000)


def test_render_visual(benchmark):
    def render():
        return render_visual(VisualSpec("bench/render", variant=next(_fresh)))

    image = benchmark(render)
    assert image.shape == (72, 128)


def test_dhash(benchmark):
    image = render_visual(VisualSpec("bench/dhash", variant=1))
    value = benchmark(dhash128, image)
    assert 0 <= value < 2**128


@pytest.fixture(scope="module")
def hash_population():
    rng = rng_for(7, "bench-hashes")
    centers = [rng.getrandbits(128) for _ in range(30)]
    hashes = []
    for _ in range(3000):
        value = rng.choice(centers)
        for _ in range(rng.randint(0, 5)):
            value ^= 1 << rng.randrange(128)
        hashes.append(value)
    return hashes


def test_dbscan_on_hash_population(benchmark, hash_population):
    index = IncrementalDBSCAN(12, 3)
    index.add_batch(hash_population)

    labels = benchmark(dbscan, len(hash_population), index.neighbors_of, 3)
    clusters = {label for label in labels if label >= 0}
    # The 30 planted centers come back as ~30 clusters.
    assert 20 <= len(clusters) <= 40
