"""Crawl records read back from the run store, by row.

The store is the crawl dataset: every interaction lives once, as a row of
its ``interactions`` stream, and no stage keeps the decoded objects.  A
stage remembers the row numbers it cares about — rows are numbered by
position in the one total order every stage ingests — and hands out a
:class:`StoredInteractions` view when a consumer asks for the records.
The view decodes its rows on each access and holds none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.core.crawler import AdInteraction, interaction_from_dict, interaction_to_dict
from repro.store.base import INTERACTIONS, RunStore
from repro.store.memory import MemoryStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.discovery import DiscoveredCampaign


class StoredInteractions:
    """A read-only sequence of ``interactions`` rows, decoded on access.

    ``rows=None`` is the whole stream (its length is the store's row
    count); otherwise the listed rows, in the listed order.  Iteration is
    one :meth:`~repro.store.base.RunStore.scan` of the store; indexing
    decodes one row and slicing a list of them.
    """

    __slots__ = ("store", "rows")

    def __init__(
        self, store: RunStore | None, rows: Sequence[int] | None = None
    ) -> None:
        self.store = store
        self.rows = rows

    def __len__(self) -> int:
        if self.rows is None:
            return self.store.count(INTERACTIONS) if self.store is not None else 0
        return len(self.rows)

    def __iter__(self) -> Iterator[AdInteraction]:
        if self.store is None:
            return iter(())
        return map(interaction_from_dict, self.store.scan(INTERACTIONS, self.rows))

    def __getitem__(self, index):
        rows = range(len(self)) if self.rows is None else self.rows
        if isinstance(index, slice):
            return list(StoredInteractions(self.store, rows[index]))
        row = rows[index]
        return next(iter(StoredInteractions(self.store, (row,))))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (StoredInteractions, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StoredInteractions({len(self)} rows)"


def stored(interactions: Iterable[AdInteraction]) -> RunStore:
    """A store whose ``interactions`` rows are ``interactions``, in order.

    The batch entry points (``discover_campaigns``,
    ``attribute_interactions``) run their stage over it.  A whole-stream
    view already is such a store and is used as it is.
    """
    if isinstance(interactions, StoredInteractions) and interactions.rows is None:
        return interactions.store
    store = MemoryStore(run_id="batch")
    store.extend(INTERACTIONS, (interaction_to_dict(record) for record in interactions))
    return store


def cluster_members(
    clusters: Sequence["DiscoveredCampaign"],
) -> Iterator[tuple[int, AdInteraction]]:
    """``(cluster index, record)`` for every member of ``clusters``, in row order.

    One :meth:`~repro.store.base.RunStore.scan` of the store the clusters
    index, however many clusters there are; records are decoded one at a
    time and none is kept.  Discovery's clusters are disjoint, so each
    row has one owner.
    """
    owner: dict[int, int] = {}
    for index, cluster in enumerate(clusters):
        for row in cluster.rows:
            owner[row] = index
    if not owner:
        return
    rows = sorted(owner)
    for row, record in zip(rows, StoredInteractions(clusters[0].store, rows)):
        yield owner[row], record
