"""Versioned blocklist snapshots and deltas.

The wire model follows the Safe Browsing Update API shape: the feed is a
monotonically versioned *set* of blocklist entries; clients either fetch
the **full snapshot** at the latest version or a **delta** from the
version they already hold.  Both are canonically serialized — entries
sorted by domain, compact JSON with sorted keys — so a snapshot's bytes,
and therefore its SHA-256 ``content_hash``, are a pure function of its
logical content.  That is the determinism contract the feed inherits
from the rest of the sim lane: byte-identical across ``--workers``
counts, repeat runs, and resume (``tests/test_feed_determinism.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import ConfigError

#: Wire-format tag, bumped on any canonical-serialization change.
FEED_FORMAT = "seacma-feed/1"


@dataclass(frozen=True, order=True)
class FeedEntry:
    """One blocklist entry: an SE attack domain with its provenance."""

    domain: str
    #: Discovery campaign (cluster id) the domain was milked from.
    cluster_id: int
    #: Attack category label (``None`` when triage had no category).
    category: str | None
    #: Ad network the campaign was attributed to (``None`` if unknown).
    network: str | None
    #: Sim time the milker first saw the domain.
    first_seen: float
    #: Sim time of the latest milking session that still served it.
    last_seen: float

    def to_record(self) -> dict[str, Any]:
        """The entry's canonical JSON object."""
        return {
            "domain": self.domain,
            "cluster_id": self.cluster_id,
            "category": self.category,
            "network": self.network,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }

    @classmethod
    def from_record(cls, data: Mapping[str, Any]) -> "FeedEntry":
        return cls(
            domain=data["domain"],
            cluster_id=data["cluster_id"],
            category=data["category"],
            network=data["network"],
            first_seen=data["first_seen"],
            last_seen=data["last_seen"],
        )


def _canonical_json(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _entries_digest(ordered: Iterable[FeedEntry]) -> str:
    return hashlib.sha256(
        _canonical_json([entry.to_record() for entry in ordered])
    ).hexdigest()


@dataclass(frozen=True)
class FeedSnapshot:
    """One published feed version: the full entry set at a sim instant."""

    version: int
    published_at: float
    entries: tuple[FeedEntry, ...]
    content_hash: str

    @classmethod
    def build(
        cls, version: int, published_at: float, entries: Iterable[FeedEntry]
    ) -> "FeedSnapshot":
        """Canonicalize ``entries`` (sort by domain) and stamp the hash."""
        ordered = tuple(sorted(entries, key=lambda entry: entry.domain))
        domains = [entry.domain for entry in ordered]
        if len(set(domains)) != len(domains):
            raise ConfigError(
                f"feed snapshot v{version} holds duplicate domains; entries "
                "must be unique per domain"
            )
        digest = _entries_digest(ordered)
        return cls(
            version=version,
            published_at=published_at,
            entries=ordered,
            content_hash=digest,
        )

    def __len__(self) -> int:
        return len(self.entries)

    def domains(self) -> list[str]:
        """Entry domains, in canonical (sorted) order."""
        return [entry.domain for entry in self.entries]

    def entry_map(self) -> dict[str, FeedEntry]:
        """Entries keyed by domain."""
        return {entry.domain: entry for entry in self.entries}

    def canonical_bytes(self) -> bytes:
        """The snapshot's full wire payload (what ``feed pull`` emits)."""
        return _canonical_json(self.to_record())

    def to_record(self) -> dict[str, Any]:
        """The snapshot as one store/wire record."""
        return {
            "format": FEED_FORMAT,
            "kind": "snapshot",
            "version": self.version,
            "published_at": self.published_at,
            "content_hash": self.content_hash,
            "entries": [entry.to_record() for entry in self.entries],
        }

    @classmethod
    def from_record(cls, data: Mapping[str, Any]) -> "FeedSnapshot":
        """Inverse of :meth:`to_record`, re-verifying the content hash."""
        snapshot = cls.build(
            version=data["version"],
            published_at=data["published_at"],
            entries=(FeedEntry.from_record(item) for item in data["entries"]),
        )
        stored = data.get("content_hash")
        if stored is not None and stored != snapshot.content_hash:
            raise ConfigError(
                f"feed snapshot v{snapshot.version} fails its hash check "
                f"(stored {stored[:12]}…, recomputed "
                f"{snapshot.content_hash[:12]}…); the record was damaged"
            )
        return snapshot


@dataclass(frozen=True)
class FeedDelta:
    """The difference between two snapshot versions.

    ``added`` and ``updated`` carry full entries; ``removed`` carries
    bare domains.  ``to_hash`` lets the client verify the state it
    reconstructs by applying the delta.
    """

    from_version: int
    to_version: int
    published_at: float
    added: tuple[FeedEntry, ...]
    updated: tuple[FeedEntry, ...]
    removed: tuple[str, ...]
    to_hash: str

    def canonical_bytes(self) -> bytes:
        return _canonical_json(self.to_record())

    def to_record(self) -> dict[str, Any]:
        return {
            "format": FEED_FORMAT,
            "kind": "delta",
            "from_version": self.from_version,
            "to_version": self.to_version,
            "published_at": self.published_at,
            "added": [entry.to_record() for entry in self.added],
            "updated": [entry.to_record() for entry in self.updated],
            "removed": list(self.removed),
            "to_hash": self.to_hash,
        }

    @classmethod
    def from_record(cls, data: Mapping[str, Any]) -> "FeedDelta":
        return cls(
            from_version=data["from_version"],
            to_version=data["to_version"],
            published_at=data["published_at"],
            added=tuple(FeedEntry.from_record(item) for item in data["added"]),
            updated=tuple(FeedEntry.from_record(item) for item in data["updated"]),
            removed=tuple(data["removed"]),
            to_hash=data["to_hash"],
        )


def compute_delta(old: FeedSnapshot, new: FeedSnapshot) -> FeedDelta:
    """The canonical delta turning ``old``'s entry set into ``new``'s."""
    if new.version <= old.version:
        raise ConfigError(
            f"cannot delta from v{old.version} to v{new.version}; feed "
            "versions only move forward"
        )
    old_map = old.entry_map()
    new_map = new.entry_map()
    added = tuple(
        entry for domain, entry in sorted(new_map.items()) if domain not in old_map
    )
    updated = tuple(
        entry
        for domain, entry in sorted(new_map.items())
        if domain in old_map and entry != old_map[domain]
    )
    removed = tuple(sorted(domain for domain in old_map if domain not in new_map))
    return FeedDelta(
        from_version=old.version,
        to_version=new.version,
        published_at=new.published_at,
        added=added,
        updated=updated,
        removed=removed,
        to_hash=new.content_hash,
    )


def apply_delta(base: Mapping[str, FeedEntry], delta: FeedDelta) -> dict[str, FeedEntry]:
    """Apply ``delta`` to a client's entry map; verify with ``to_hash``."""
    state = dict(base)
    for domain in delta.removed:
        state.pop(domain, None)
    for entry in delta.added:
        state[entry.domain] = entry
    for entry in delta.updated:
        state[entry.domain] = entry
    return state


def state_hash(state: Mapping[str, FeedEntry]) -> str:
    """The content hash of an entry map (client-side verification).

    Identical to the hash a :class:`FeedSnapshot` with the same entries
    carries: the hash covers the canonical entry list only, so a client
    that reconstructed the entry set via deltas can check itself against
    ``FeedDelta.to_hash`` without knowing the snapshot metadata.
    """
    return _entries_digest(sorted(state.values(), key=lambda entry: entry.domain))
