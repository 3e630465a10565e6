"""Persistent, pluggable storage for measurement runs.

The streaming pipeline (:mod:`repro.core.pipeline`) writes every
artifact — crawl interactions, screenshot hashes, discovered campaigns,
attribution rows, milking samples, blocklist-feed snapshots — to a
:class:`RunStore` as typed,
append-only record streams.  :class:`MemoryStore` backs in-process runs;
:class:`JsonlStore` backs durable runs that can be stopped, resumed
(``repro resume DIR``) and re-reported offline
(:func:`repro.store.persist.load_result`).
"""

from repro.store.base import (
    ATTRIBUTION,
    CAMPAIGNS,
    FEED,
    HASHES,
    INTERACTIONS,
    META,
    MILKING,
    PROGRESS,
    STREAMS,
    RunStore,
)
from repro.store.jsonl import JsonlStore, RecoveryReport
from repro.store.memory import MemoryStore

__all__ = [
    "RunStore",
    "MemoryStore",
    "JsonlStore",
    "RecoveryReport",
    "STREAMS",
    "INTERACTIONS",
    "HASHES",
    "CAMPAIGNS",
    "ATTRIBUTION",
    "FEED",
    "MILKING",
    "PROGRESS",
    "META",
]
