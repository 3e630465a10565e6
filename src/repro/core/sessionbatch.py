"""The session kernel.

:class:`SessionKernel` owns the inner loop of :meth:`CrawlerFarm.run_plan`:
it runs every still-pending (domain, profile) session of one plan entry
and commits the results into the crawl checkpoint.  Session control flow
(clicks, cloaking, RNG draws, virtual clock) runs session by session —
the ad servers are stateful within a domain scope, so sessions cannot be
reordered.  The pure per-interaction work is memoized instead of
recomputed: a screenshot's hash is a pure function of its page's visual
spec, so each visual is hashed once per process
(:func:`~repro.imaging.dhash.visual_dhash`), and a served page extracts
its landing-page features once per host
(:meth:`~repro.dom.page.PageContent.features`).

Neither memo can change a byte: the session control flow never reads a
hash or a feature back, and a memo hit returns exactly the value a fresh
computation would (the golden digests in ``tests/golden.py`` pin whole
runs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.browser.useragent import PROFILES
from repro.chaos.points import crash_point
from repro.core.crawler import AdInteraction
from repro.telemetry import SHARD_LANE, current as current_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.farm import CrawlCheckpoint, CrawlPlan, CrawlerFarm, PlanEntry

#: Interactions recorded per session; sessions cap at
#: :attr:`~repro.core.crawler.CrawlerConfig.max_ads` (default 3), so the
#: buckets resolve the whole useful range exactly.
SCREEN_BOUNDARIES = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0)


class SessionKernel:
    """Runs one plan entry's sessions, then commits them.

    ``run_entry`` runs every pending session of ``entry`` and returns
    ``(batch_interactions, sessions_run)``.  The commit phase — landing-
    click accounting, checkpoint marks, the entry's in-flight records —
    always runs, even when a session dies on an unabsorbed exception, so
    the checkpoint a crash leaves behind covers exactly the sessions that
    finished, and the resumed entry's batch still carries their records.
    """

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
        # Sessions an earlier, crashed attempt at this entry committed.
        batch = checkpoint.take_in_flight(entry.domain)
        sessions_run = 0
        #: (session key, profile index, that session's interactions).
        pending: list[tuple[tuple[str, str], int, list[AdInteraction]]] = []
        try:
            for profile_index, profile in enumerate(PROFILES):
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
                interactions = farm._run_session(entry.domain, profile, vantage)
                dataset.sessions += 1
                sessions_run += 1
                telemetry.inc("crawl.sessions")
                telemetry.observe(
                    "farm.session.screens",
                    len(interactions),
                    boundaries=SCREEN_BOUNDARIES,
                )
                pending.append((key, profile_index, interactions))
        finally:
            # Commit what ran even when a later session raised.  The
            # chaos matrix kills on either side of the commit.
            crash_point("farm.sessionbatch.pre")
            # Operational lane: the commit runs wherever the domain's
            # sessions ran (parent or shard worker); kernel-internal
            # counters are not part of the canonical sim trace.
            with telemetry.span(
                "farm.sessionbatch",
                attrs={
                    "domain": entry.domain,
                    "screens": sum(len(records) for _, _, records in pending),
                },
                lane=SHARD_LANE,
            ):
                for key, profile_index, interactions in pending:
                    telemetry.inc("crawl.interactions", len(interactions))
                    batch.extend(interactions)
                    dataset.count_landings(interactions)
                    checkpoint.completed_sessions.add(key)
                    if entry.residential:
                        checkpoint.laptop_index = (
                            entry.residential_base + profile_index + 1
                        )
                checkpoint.in_flight = (entry.domain, batch)
            crash_point("farm.sessionbatch.post")
        return batch, sessions_run
