"""The session kernel.

:class:`SessionKernel` owns the inner loop of :meth:`CrawlerFarm.run_plan`:
it runs every (domain, profile) session of one plan entry and commits
the results into the crawl dataset once, after the entry's last
session.  Session control flow (clicks, cloaking, RNG draws, virtual
clock) runs session by session —
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
    from repro.core.farm import CrawlDataset, CrawlPlan, CrawlerFarm, PlanEntry

#: Interactions recorded per session; sessions cap at
#: :attr:`~repro.core.crawler.CrawlerConfig.max_ads` (default 3), so the
#: buckets resolve the whole useful range exactly.
SCREEN_BOUNDARIES = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0)


class SessionKernel:
    """Runs one plan entry's sessions, then commits them once.

    ``run_entry`` runs every session of ``entry`` and returns the
    entry's interactions.  The commit — interaction counters and
    landing-click accounting — runs once, after the last session; a
    session that dies on an unabsorbed exception skips it, so the
    dataset never holds part of a domain and the domain is re-crawled
    whole by whichever recovery picks the crawl up.
    """

    def run_entry(
        self,
        farm: "CrawlerFarm",
        entry: "PlanEntry",
        plan: "CrawlPlan",
        dataset: "CrawlDataset",
    ) -> list[AdInteraction]:
        world = farm.world
        n_laptops = len(world.vantages_residential) or 1
        telemetry = current_telemetry()
        batch: list[AdInteraction] = []
        for profile_index, profile in enumerate(PROFILES):
            world.clock.seek(plan.session_time(entry.position, profile_index))
            if entry.residential:
                vantage = world.vantages_residential[
                    (entry.residential_base + profile_index) % n_laptops
                ]
            else:
                vantage = world.vantage_institution
            interactions = farm._run_session(entry.domain, profile, vantage)
            telemetry.inc("crawl.sessions")
            telemetry.observe(
                "farm.session.screens",
                len(interactions),
                boundaries=SCREEN_BOUNDARIES,
            )
            batch.extend(interactions)
        # The chaos matrix kills on either side of the commit.
        crash_point("farm.sessionbatch.pre")
        # Operational lane: the commit runs wherever the domain's
        # sessions ran (parent or shard worker); kernel-internal
        # counters are not part of the canonical sim trace.
        with telemetry.span(
            "farm.sessionbatch",
            attrs={"domain": entry.domain, "screens": len(batch)},
            lane=SHARD_LANE,
        ):
            telemetry.inc("crawl.interactions", len(batch))
            dataset.count_landings(batch)
        crash_point("farm.sessionbatch.post")
        return batch
