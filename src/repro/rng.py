"""Deterministic randomness plumbing.

Every stochastic component of the simulated ecosystem draws from a
:class:`random.Random` seeded through :func:`derive`, which hashes a parent
seed together with string labels.  This gives two properties the experiments
rely on:

* the whole world is a pure function of one integer seed, and
* adding a new component does not perturb the random streams of existing
  components (no shared global generator).
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

__all__ = ["derive", "rng_for", "weighted_choice"]


def derive(seed: int, *labels: str | int) -> int:
    """Derive a child seed from ``seed`` and a path of labels.

    The seed is the first 8 bytes of the SHA-256 of the label path
    ``str(seed)`` + (``"/"`` + ``str(label)``)*, utf-8 encoded, so it is
    stable across processes and Python versions (no ``hash()``).  Nothing
    is memoized: one hash of a short path costs about as much as a cache
    lookup, and most paths (fault draws, per-scope streams) are asked for
    exactly once, so a cache would only hold dead entries.

    >>> derive(7, "adnet", "popcash") == derive(7, "adnet", "popcash")
    True
    >>> derive(7, "adnet", "popcash") != derive(7, "adnet", "popads")
    True
    """
    path = "/".join([str(int(seed)), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(path.encode("utf-8")).digest()[:8], "big")


def rng_for(seed: int, *labels: str | int) -> random.Random:
    """Return a fresh :class:`random.Random` for the derived child seed."""
    return random.Random(derive(seed, *labels))


def weighted_choice(rng: random.Random, items: Sequence, weights: Sequence[float]):
    """Pick one item with the given (not necessarily normalized) weights."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        cumulative += weight
        if point < cumulative:
            return item
    return items[-1]
