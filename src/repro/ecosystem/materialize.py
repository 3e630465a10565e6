"""World materialization: derive publisher artifacts on demand.

Retaining every :class:`~repro.ecosystem.publisher.PublisherSite` — and,
once touched, every built page — for the whole run would cap the
population a world can hold in memory.  The directory services build on
this module instead:

* :class:`SiteRecord` is the compact per-publisher skeleton (domain,
  rank, category, network keys) the sequential generation pass emits for
  *every* population size; a record is a few hundred bytes where a
  materialized site with its page is tens of kilobytes;
* :class:`PageCache` is a bounded LRU over built pages.  A page is a
  pure function of ``(seed, domain)`` (see
  :func:`~repro.ecosystem.publisher.derive_publisher_page`), so evicting
  one loses nothing: the next access re-derives the identical object;
* :class:`SiteSequence` presents the record table as the familiar
  ``world.publishers`` list, materializing transient site views on
  access only.

Determinism argument: page derivation consumes no shared RNG stream and
mutates no world state, so building a page late, or twice, yields
byte-identical artifacts (``tests/test_lazy_world.py`` checks
re-derivation; the golden digests in ``tests/golden.py`` pin whole runs).

The cache build path carries two named chaos points
(``world.materialize.pre``/``world.materialize.post``) so the crash
matrix also covers a process dying mid-materialization.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, TYPE_CHECKING

from repro.chaos.points import crash_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dom.page import PageContent
    from repro.ecosystem.publisher import PublisherDirectory, PublisherSite

#: Default bound on concurrently-materialized publisher pages.  Sized so
#: a tiny/small world fits entirely (every access after reversal is a
#: hit) while a paper-scale world stays under ~100 MB of page objects.
DEFAULT_PAGE_CACHE_SIZE = 2048


@dataclass(frozen=True)
class SiteRecord:
    """The compact skeleton of one publisher site.

    Everything the directory services need to answer queries — crawl
    grouping (:attr:`network_keys`), reversal ordering (:attr:`rank`),
    WebPulse categories — without materializing a page.
    """

    domain: str
    rank: int
    category: str
    network_keys: tuple[str, ...]


@dataclass
class MaterializationStats:
    """Counters for the materialization path (ops data, not sim data).

    Deliberately kept *out* of the canonical telemetry registry: hit and
    miss counts depend on which process ran which sessions, so they vary
    across worker counts while the simulation's outputs do not.  The
    ``world.materialized_publishers`` gauge the pipeline publishes is
    derived from :attr:`distinct` (worker-invariant); everything else is
    exported on the shard lane and in the benchmark reports.
    """

    pages_built: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Domains whose page has been derived at least once in this process.
    distinct: set[str] = field(default_factory=set)

    @property
    def distinct_count(self) -> int:
        return len(self.distinct)

    def as_dict(self) -> dict[str, int]:
        return {
            "pages_built": self.pages_built,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "distinct_publishers": self.distinct_count,
        }


class PageCache:
    """A bounded LRU over derived pages, keyed by domain.

    ``get`` either returns the cached page (and refreshes its recency)
    or derives it via the supplied builder, evicting the least recently
    used entry once ``capacity`` is exceeded.  With ``chaos=True`` the
    build path reports the ``world.materialize.*`` crash points.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_PAGE_CACHE_SIZE,
        stats: MaterializationStats | None = None,
        chaos: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else MaterializationStats()
        self.chaos = chaos
        self._entries: "OrderedDict[str, PageContent]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, domain: str) -> bool:
        return domain in self._entries

    def get(self, domain: str, build: Callable[[], "PageContent"]) -> "PageContent":
        """The page for ``domain``, derived on first (or re-)access."""
        stats = self.stats
        page = self._entries.get(domain)
        if page is not None:
            self._entries.move_to_end(domain)
            stats.cache_hits += 1
            return page
        if self.chaos:
            crash_point("world.materialize.pre")
        page = build()
        stats.cache_misses += 1
        stats.pages_built += 1
        stats.distinct.add(domain)
        self._entries[domain] = page
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            stats.cache_evictions += 1
        if self.chaos:
            crash_point("world.materialize.post")
        return page


class SiteSequence(Sequence):
    """``world.publishers`` over the directory: views, not residents.

    Supports ``len``/iteration/indexing/slicing like a list, but each
    access materializes a transient
    :class:`~repro.ecosystem.publisher.PublisherSite` view from the
    directory's record table; nothing is retained between accesses.
    """

    def __init__(self, directory: "PublisherDirectory", domains: tuple[str, ...]) -> None:
        self._directory = directory
        self._domains = domains

    def __len__(self) -> int:
        return len(self._domains)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._directory.get(domain) for domain in self._domains[index]]
        return self._directory.get(self._domains[index])

    def __iter__(self) -> Iterator["PublisherSite"]:
        for domain in self._domains:
            yield self._directory.get(domain)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SiteSequence({len(self._domains)} sites)"
