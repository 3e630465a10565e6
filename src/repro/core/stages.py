"""The incremental stage contract of the streaming pipeline.

The paper's system is a continuously running loop: crawlers feed
screenshots into clustering while milking fires on its own schedule.  We
model the consumers of that loop as *stages*: objects that ``ingest``
crawl batches as the farm emits them and ``finalize`` into a stage
result.  A stage must be **schedule-invariant**: for a fixed total
ingest order, any partition of it into batches finalizes to the same
result as one batch pass (each stage documents why it qualifies).

Concrete stages:

* :class:`repro.core.discovery.IncrementalDiscovery` — ④⑤ clustering;
* :class:`repro.core.attribution.IncrementalAttribution` — ⑦ attribution;
* :class:`StoreWriter` (here) — persistence into a
  :class:`~repro.store.base.RunStore`.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.core.crawler import AdInteraction, interaction_to_dict
from repro.store.base import HASHES, INTERACTIONS, RunStore
from repro.store.records import hash_to_record


@runtime_checkable
class Stage(Protocol):
    """An incremental consumer of the crawl stream."""

    @property
    def name(self) -> str:
        """Short stage name (progress reporting, store keys)."""
        ...

    def ingest(self, batch: Iterable[AdInteraction]) -> None:
        """Consume one batch of crawl interactions, in stream order."""
        ...

    def finalize(self) -> object:
        """Produce the stage result over everything ingested so far."""
        ...


def ingest_all(stages: Sequence[Stage], batch: Sequence[AdInteraction]) -> None:
    """Feed one crawl batch to every stage, in stage order."""
    for stage in stages:
        stage.ingest(batch)


class StoreWriter:
    """Persistence as a stage: append crawl records to the run store.

    Writes each interaction to the ``interactions`` stream and, for
    interactions that reached a third-party landing page, the clustering
    view to ``hashes``.  Row numbering continues from whatever the store
    already holds, so a resumed run keeps appending where the interrupted
    one stopped.  Every other stage numbers the same rows itself: they
    all see one total order.
    """

    name = "store"

    def __init__(self, store: RunStore) -> None:
        self.store = store
        self._row = store.count(INTERACTIONS)

    @property
    def rows_written(self) -> int:
        """Total interaction rows in the store (including pre-resume ones)."""
        return self._row

    def ingest(self, batch: Iterable[AdInteraction]) -> None:
        for record in batch:
            self.store.append(INTERACTIONS, interaction_to_dict(record))
            if record.landing_e2ld:
                self.store.append(HASHES, hash_to_record(self._row, record))
            self._row += 1

    def finalize(self) -> RunStore:
        return self.store
