"""The columnar session-simulation kernel.

:class:`SessionKernel` owns the inner loop of :meth:`CrawlerFarm._drive`:
it runs every still-pending (domain, profile) session of one plan entry
and commits the results into the crawl checkpoint.  Session control flow
(clicks, cloaking, RNG draws, virtual clock) runs session by session —
the ad servers are stateful within a domain scope, so sessions cannot be
reordered — but everything *pure* is deferred and batched: screenshot
hashing moves out of the session loop into a per-domain resolve phase
that content-dedupes the captured frames and hashes the survivors as one
stacked array operation (:func:`~repro.imaging.dhash.dhash128_many`),
and landing-page feature extraction is memoized per rendered page.

Hashes and page features are pure functions of page content that the
session control flow never reads back, so deferring, deduplicating or
vectorizing them cannot change any downstream byte.  Block sums of uint8
pixels are exact in float64, which makes the stacked means bit-identical
to the per-image :func:`~repro.imaging.dhash.dhash128` (see
``tests/test_sessionbatch.py``; the golden digests in
``tests/golden.py`` pin whole runs).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from hashlib import blake2b
from typing import TYPE_CHECKING, Any

from repro.chaos.points import crash_point
from repro.core.crawler import AdInteraction, PageFeatures
from repro.imaging.dhash import dhash128_many
from repro.telemetry import SHARD_LANE, current as current_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.farm import CrawlCheckpoint, CrawlPlan, CrawlerFarm, PlanEntry

#: Interactions recorded per session; sessions cap at
#: :attr:`~repro.core.crawler.CrawlerConfig.max_ads` (default 3), so the
#: buckets resolve the whole useful range exactly.
SCREEN_BOUNDARIES = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0)


def _image_digest(image: Any) -> bytes:
    """Content digest of a screenshot array (shape- and dtype-aware)."""
    h = blake2b(digest_size=16)
    h.update(repr((image.shape, str(image.dtype))).encode())
    h.update(image.tobytes())
    return h.digest()


class HashMemo:
    """Bounded content-addressed cache of computed screenshot hashes.

    Campaign templates repeat across thousands of landing pages, so most
    frames a crawl captures have been hashed before.  Keyed by content
    digest (not object identity — the render cache evicts and rebuilds
    arrays), bounded LRU so a 93k-publisher run cannot grow it without
    limit.
    """

    def __init__(self, max_entries: int = 16384) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, int] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, digest: bytes) -> int | None:
        value = self._entries.get(digest)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        return value

    def put(self, digest: bytes, value: int) -> None:
        self._entries[digest] = value
        self._entries.move_to_end(digest)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class DeferredRecorder:
    """Collects pure per-interaction work for a domain's resolve phase.

    Handed to :func:`~repro.core.crawler.crawl_session` by the kernel.
    ``screenshot_hash`` returns a *placeholder* (the pending frame's
    index); the kernel swaps every placeholder for the real hash
    before any record leaves the kernel, so placeholders are never
    observable outside one ``run_entry`` call.
    """

    def __init__(self, memo: HashMemo) -> None:
        self.memo = memo
        self.images: list[Any] = []
        #: Strong page references keep ``id(page)`` keys valid.
        self._features: dict[tuple[int, str], tuple[Any, PageFeatures]] = {}

    def screenshot_hash(self, image: Any) -> int:
        self.images.append(image)
        return len(self.images) - 1

    def page_features(self, page: Any, host: str) -> PageFeatures:
        key = (id(page), host)
        hit = self._features.get(key)
        if hit is None:
            hit = (page, PageFeatures.from_page(page, host))
            self._features[key] = hit
        return hit[1]

    def resolve(self) -> tuple[list[int], dict[str, int]]:
        """Hash every pending frame; returns (hashes, resolve stats).

        Frames are deduplicated twice: against the cross-domain memo and
        within the pending batch itself.  Only first-seen content is
        hashed, in one vectorized pass that produces the bit-identical
        value :func:`~repro.imaging.dhash.dhash128` would have.
        """
        hashes = [0] * len(self.images)
        fresh_images: list[Any] = []
        fresh_digests: list[bytes] = []
        fresh_slots: dict[bytes, list[int]] = {}
        for index, image in enumerate(self.images):
            digest = _image_digest(image)
            slots = fresh_slots.get(digest)
            if slots is not None:
                slots.append(index)
                continue
            cached = self.memo.get(digest)
            if cached is not None:
                hashes[index] = cached
                continue
            fresh_slots[digest] = [index]
            fresh_digests.append(digest)
            fresh_images.append(image)
        if fresh_images:
            computed = dhash128_many(fresh_images)
            for digest, value in zip(fresh_digests, computed):
                self.memo.put(digest, value)
                for index in fresh_slots[digest]:
                    hashes[index] = value
        stats = {
            "screens": len(self.images),
            "hashed": len(fresh_images),
            "features_memoized": len(self._features),
        }
        return hashes, stats


class SessionKernel:
    """Runs one plan entry's sessions, then resolves and commits them.

    ``run_entry`` runs every pending session of ``entry`` and returns
    ``(batch_interactions, sessions_run)``.  The commit phase — dataset
    append, landing-click accounting, checkpoint marks — always runs,
    even when a session dies on an unabsorbed exception, so the
    checkpoint a crash leaves behind covers exactly the sessions that
    finished; placeholders are resolved before that commit.
    """

    def __init__(self) -> None:
        self.memo = HashMemo()

    def run_entry(
        self,
        farm: "CrawlerFarm",
        entry: "PlanEntry",
        plan: "CrawlPlan",
        checkpoint: "CrawlCheckpoint",
    ) -> tuple[list[AdInteraction], int]:
        world = farm.world
        config = farm.config
        dataset = checkpoint.dataset
        n_laptops = len(world.vantages_residential) or 1
        telemetry = current_telemetry()
        recorder = DeferredRecorder(self.memo)
        batch: list[AdInteraction] = []
        sessions_run = 0
        #: (session key, profile index, that session's interactions) —
        #: interactions hold placeholder hashes until ``_resolve``.
        pending: list[tuple[tuple[str, str], int, list[AdInteraction]]] = []
        try:
            for profile_index, profile in enumerate(config.profiles):
                key = (entry.domain, profile.name)
                if key in checkpoint.completed_sessions:
                    continue
                world.clock.seek(plan.session_time(entry.position, profile_index))
                if entry.residential:
                    vantage = world.vantages_residential[
                        (entry.residential_base + profile_index) % n_laptops
                    ]
                else:
                    vantage = world.vantage_institution
                interactions = farm._run_session(
                    entry.domain, profile, vantage, recorder=recorder
                )
                dataset.sessions += 1
                sessions_run += 1
                telemetry.inc("crawl.sessions")
                telemetry.observe(
                    "farm.session.screens",
                    len(interactions),
                    boundaries=SCREEN_BOUNDARIES,
                )
                pending.append((key, profile_index, list(interactions)))
        finally:
            # Commit what ran even when a later session raised: resolve
            # placeholders first so no record with a placeholder hash can
            # ever reach the dataset or the checkpoint.
            self._resolve(entry, recorder, pending)
            for key, profile_index, interactions in pending:
                telemetry.inc("crawl.interactions", len(interactions))
                dataset.interactions.extend(interactions)
                dataset.note_interactions(interactions)
                batch.extend(interactions)
                for record in interactions:
                    if record.landing_e2ld:
                        dataset.landing_click_counts[record.landing_e2ld] += 1
                checkpoint.completed_sessions.add(key)
                if entry.residential:
                    checkpoint.laptop_index = (
                        entry.residential_base + profile_index + 1
                    )
        return batch, sessions_run

    def _resolve(
        self,
        entry: "PlanEntry",
        recorder: DeferredRecorder,
        pending: list[tuple[tuple[str, str], int, list[AdInteraction]]],
    ) -> None:
        """Swap every placeholder hash for the real one."""
        crash_point("farm.sessionbatch.pre")
        telemetry = current_telemetry()
        # Operational lane: resolve runs wherever the domain's sessions
        # ran (parent or shard worker); kernel-internal counters are not
        # part of the canonical sim trace.
        with telemetry.span(
            "farm.sessionbatch",
            attrs={"domain": entry.domain, "screens": len(recorder.images)},
            lane=SHARD_LANE,
        ) as span:
            hashes, stats = recorder.resolve()
            for _, _, interactions in pending:
                for slot, record in enumerate(interactions):
                    interactions[slot] = replace(
                        record, screenshot_hash=hashes[record.screenshot_hash]
                    )
            if span is not None:
                span.attrs["hashed"] = stats["hashed"]
        crash_point("farm.sessionbatch.post")
