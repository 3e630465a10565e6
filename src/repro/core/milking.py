"""Campaign milking (§3.5 / §4.2 / §4.5).

A *milkable URL* is an upstream, long-lived URL (typically the
campaign's TDS) that keeps redirecting to whatever throw-away domain the
campaign is currently using.  The tracker:

1. **verifies** each candidate URL by visiting it and checking the
   landing screenshot perceptually matches the campaign's known
   screenshots;
2. **milks** every verified (URL, user-agent) source once per 15
   (virtual) minutes for the experiment window, recording every
   never-before-seen attack domain;
3. checks each new domain against the GSB simulator every 30 minutes —
   continuing 12 days past the milking window plus a final lookup two
   months later — to measure how slowly the blacklist reacts;
4. interacts with the attack pages: collected file downloads go to
   VirusTotal (query, first-time submission at experiment end, rescan
   after three months), scam phone numbers and survey/registration
   gateways are harvested from the pages.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.attacks.categories import AttackCategory
from repro.browser.devtools import DevToolsClient
from repro.browser.useragent import UserAgentProfile, profile_by_name
from repro.clock import DAY, EventScheduler, MINUTE
from repro.core.backtrack import milkable_candidates
from repro.core.discovery import DiscoveredCampaign, DiscoveryResult
from repro.core.rows import cluster_members
from repro.ecosystem.gsb import GoogleSafeBrowsing
from repro.ecosystem.virustotal import VirusTotal, VtReport
from repro.errors import ConfigError, MilkingError
from repro.imaging.similarity import matches_any
from repro.net.ipspace import VantagePoint
from repro.net.network import Internet
from repro.telemetry import current as current_telemetry
from repro.urlkit.psl import e2ld


#: Minutes between GSB lookup rounds over the milked domains (§4.2).
GSB_INTERVAL_MINUTES = 30.0
#: Rescheduled attempts of one failed source before it waits for the
#: next round.
MAX_RETRIES_PER_ROUND = 2


@dataclass(frozen=True)
class MilkingConfig:
    """Scheduling parameters (the paper's §4.2 values by default)."""

    duration_days: float = 14.0
    interval_minutes: float = 15.0
    post_lookup_days: float = 12.0
    final_lookup_extra_days: float = 60.0
    vt_rescan_days: float = 90.0
    interact_with_pages: bool = True
    #: Reschedule a failed milk attempt between rounds instead of waiting
    #: a whole interval (transient-fault resilience).
    retry_failed_sources: bool = True
    retry_delay_minutes: float = 3.0

    def __post_init__(self) -> None:
        # A negative or infinite schedule would milk nothing or forever.
        for name in ("duration_days", "post_lookup_days"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(
                    f"{name} must be finite and non-negative, got {value}"
                )
        interval = self.interval_minutes
        if not (math.isfinite(interval) and interval > 0.0):
            raise ConfigError(
                f"interval_minutes must be finite and positive, got {interval}"
            )


@dataclass
class MilkingSource:
    """One verified (milkable URL, user agent) pair."""

    source_id: int
    url: str
    ua_name: str
    cluster_id: int
    category: AttackCategory | None
    known_hashes: set[int] = field(default_factory=set)
    sessions: int = 0
    failures: int = 0
    active: bool = True


@dataclass
class MilkedDomain:
    """A never-before-seen SE attack domain found by milking."""

    domain: str
    cluster_id: int
    category: AttackCategory | None
    discovered_at: float
    listed_at_discovery: bool
    observed_listed_at: float | None = None
    listed_at_final: bool = False
    #: Latest milking session that still served this domain (equals
    #: ``discovered_at`` until the domain is sighted again).
    last_seen_at: float = 0.0


@dataclass
class MilkedFile:
    """A file download collected while interacting with attack pages."""

    sha256: str
    filename: str
    cluster_id: int
    category: AttackCategory | None
    downloaded_at: float
    known_to_vt: bool
    initial_report: VtReport | None = None
    rescan_report: VtReport | None = None


@dataclass
class MilkingReport:
    """Everything the milking phase measured."""

    domains: list[MilkedDomain] = field(default_factory=list)
    files: list[MilkedFile] = field(default_factory=list)
    sessions: int = 0
    sources: int = 0
    phones: set[str] = field(default_factory=set)
    gateways: set[str] = field(default_factory=set)
    started_at: float = 0.0
    finished_at: float = 0.0
    final_lookup_at: float = 0.0

    # ------------------------------------------------------------- metrics

    def domains_by_category(self) -> dict[AttackCategory | None, list[MilkedDomain]]:
        """Milked domains grouped by campaign category."""
        groups: dict[AttackCategory | None, list[MilkedDomain]] = {}
        for domain in self.domains:
            groups.setdefault(domain.category, []).append(domain)
        return groups

    def gsb_init_rate(self, domains: list[MilkedDomain] | None = None) -> float:
        """Fraction of milked domains already listed when discovered."""
        pool = self.domains if domains is None else domains
        if not pool:
            return 0.0
        return sum(1 for d in pool if d.listed_at_discovery) / len(pool)

    def gsb_final_rate(self, domains: list[MilkedDomain] | None = None) -> float:
        """Fraction listed by the final (two-months-later) lookup."""
        pool = self.domains if domains is None else domains
        if not pool:
            return 0.0
        return sum(1 for d in pool if d.listed_at_final) / len(pool)

    def mean_detection_lag_days(self) -> float | None:
        """Mean (listing - milking discovery) over eventually-listed
        domains, in days — the ">7 days slower" result of §4.5."""
        lags = [
            (d.observed_listed_at - d.discovered_at) / DAY
            for d in self.domains
            if d.observed_listed_at is not None
        ]
        if not lags:
            return None
        return sum(lags) / len(lags)

    def vt_summary(self) -> dict[str, int]:
        """The §4.5 milked-files headline numbers."""
        rescans = [f.rescan_report for f in self.files if f.rescan_report is not None]
        return {
            "files": len(self.files),
            "known_to_vt": sum(1 for f in self.files if f.known_to_vt),
            "malicious_after_rescan": sum(1 for r in rescans if r.is_malicious),
            "flagged_by_15_plus": sum(1 for r in rescans if r.detections >= 15),
        }

    def vt_label_counts(self) -> Counter:
        """Label prefix frequencies across rescanned files."""
        counts: Counter = Counter()
        for file in self.files:
            report = file.rescan_report
            if report is None:
                continue
            for label in report.labels:
                counts[label.split(".")[0]] += 1
        return counts


class MilkingTracker:
    """Runs the milking experiment against the simulated internet."""

    def __init__(
        self,
        internet: Internet,
        gsb: GoogleSafeBrowsing,
        virustotal: VirusTotal,
        vantage: VantagePoint,
    ) -> None:
        self.internet = internet
        self.gsb = gsb
        self.virustotal = virustotal
        self.vantage = vantage
        self.sources: list[MilkingSource] = []
        #: Observers notified of discoveries, re-sightings and round
        #: boundaries — the feed publisher's hook
        #: (:class:`repro.feed.publisher.FeedPublisher`).  An observer
        #: implements ``domain_discovered(record, now)``,
        #: ``domain_seen(record, now)``, ``round_complete(now)`` and
        #: ``milking_finished(now)``.
        self.observers: list = []
        #: Payload objects by hash, retained for end-of-experiment VT
        #: submission of previously unknown files.
        self._payloads: dict[str, object] = {}

    # ------------------------------------------------------- source setup

    def derive_sources(self, discovery: DiscoveryResult) -> list[MilkingSource]:
        """Extract and verify milking sources from discovered campaigns.

        For each SE cluster, candidate URLs come from the backtracking
        chains of its member interactions; each (candidate, UA) pair is
        verified by a pilot visit whose screenshot must match the
        cluster's known screenshots.  Pilot visits happen at the current
        virtual time.  The pipeline derives sources once, when the crawl
        is finalized.
        """
        telemetry = current_telemetry()
        clusters = discovery.seacma_campaigns
        sources: list[MilkingSource] = []
        with telemetry.span("milking.derive", attrs={"campaigns": len(clusters)}):
            for cluster, candidates in zip(clusters, _member_candidates(clusters)):
                known = set(cluster.hashes)
                for url in sorted(candidates):
                    for ua_name in sorted(candidates[url]):
                        if self._verify(url, ua_name, known):
                            sources.append(
                                MilkingSource(
                                    source_id=len(sources) + 1,
                                    url=url,
                                    ua_name=ua_name,
                                    cluster_id=cluster.cluster_id,
                                    category=cluster.category,
                                    known_hashes=set(known),
                                )
                            )
        telemetry.inc("milking.sources", len(sources))
        self.sources = sources
        return sources

    def add_observer(self, observer) -> None:
        """Register a milking observer (see :attr:`observers`)."""
        self.observers.append(observer)

    def _verify(self, url: str, ua_name: str, known_hashes: set[int]) -> bool:
        """Pilot visit: does the candidate lead back to the campaign?"""
        client = self._client(ua_name)
        tab = client.navigate(url)
        if not tab.loaded:
            return False
        shot = client.screenshot(tab)
        return matches_any(shot.dhash, known_hashes)

    # --------------------------------------------------------------- runs

    def run(self, config: MilkingConfig | None = None) -> MilkingReport:
        """Run the full milking + GSB + VirusTotal experiment."""
        if not self.sources:
            raise MilkingError("no milking sources; call derive_sources first")
        config = config if config is not None else MilkingConfig()
        clock = self.internet.clock
        telemetry = current_telemetry()
        report = MilkingReport(started_at=clock.now(), sources=len(self.sources))
        watchlist: dict[str, MilkedDomain] = {}
        scheduler = EventScheduler(clock)
        milk_end = clock.now() + config.duration_days * DAY

        def milk_round(now: float) -> None:
            with telemetry.span(
                "milking.round", attrs={"sources": len(self.sources)}
            ):
                for source in self.sources:
                    if source.active and not self._milk_once(
                        source, report, watchlist, config
                    ):
                        self._schedule_retry(
                            scheduler, source, report, watchlist, config,
                            milk_end, attempt=0,
                        )
            for observer in self.observers:
                observer.round_complete(now)

        def gsb_round(now: float) -> None:
            for domain, record in watchlist.items():
                if record.observed_listed_at is None:
                    telemetry.inc("milking.gsb_lookups")
                    if self.gsb.lookup(domain, now):
                        record.observed_listed_at = now

        scheduler.schedule_every(
            config.interval_minutes * MINUTE, milk_round, until=milk_end
        )
        lookups_end = milk_end + config.post_lookup_days * DAY
        scheduler.schedule_every(
            GSB_INTERVAL_MINUTES * MINUTE, gsb_round, until=lookups_end
        )
        scheduler.run_until(lookups_end)
        report.finished_at = milk_end
        for observer in self.observers:
            observer.milking_finished(milk_end)

        # Final late lookup, two months on (§4.5).
        final_at = milk_end + config.final_lookup_extra_days * DAY
        clock.advance_to(max(final_at, clock.now()))
        for domain, record in watchlist.items():
            if self.gsb.lookup(domain, clock.now()):
                record.listed_at_final = True
                if record.observed_listed_at is None:
                    record.observed_listed_at = self.gsb.listed_time(domain)
        report.final_lookup_at = clock.now()

        # VirusTotal: submit the unknowns, then rescan everything later.
        for file in report.files:
            if not file.known_to_vt:
                payload = self._payloads.get(file.sha256)
                if payload is not None:
                    file.initial_report = self.virustotal.submit(payload, clock.now())
        clock.advance(config.vt_rescan_days * DAY)
        for file in report.files:
            try:
                file.rescan_report = self.virustotal.rescan(file.sha256, clock.now())
            except KeyError:
                pass
        return report

    # ----------------------------------------------------------- internals

    def _schedule_retry(
        self,
        scheduler: EventScheduler,
        source: MilkingSource,
        report: MilkingReport,
        watchlist: dict[str, MilkedDomain],
        config: MilkingConfig,
        milk_end: float,
        attempt: int,
    ) -> None:
        """Reschedule a failed milk attempt instead of dropping the round.

        Retries back off exponentially from ``retry_delay_minutes``, stop
        after :data:`MAX_RETRIES_PER_ROUND` and never fire past the milking
        window; a 20-failure streak still deactivates the source.
        """
        if not config.retry_failed_sources or attempt >= MAX_RETRIES_PER_ROUND:
            return
        delay = config.retry_delay_minutes * MINUTE * (2.0**attempt)
        if scheduler.clock.now() + delay > milk_end:
            return
        stats = self.internet.fault_stats
        if stats is not None:
            stats.milk_reschedules += 1
        current_telemetry().event(
            "milking.reschedule",
            {"source": source.source_id, "attempt": attempt},
        )

        def retry(now: float) -> None:
            if not source.active:
                return
            if not self._milk_once(source, report, watchlist, config):
                self._schedule_retry(
                    scheduler, source, report, watchlist, config, milk_end, attempt + 1
                )

        scheduler.schedule_after(delay, retry)

    def _milk_once(
        self,
        source: MilkingSource,
        report: MilkingReport,
        watchlist: dict[str, MilkedDomain],
        config: MilkingConfig,
    ) -> bool:
        """One milk attempt; returns whether the source's page loaded."""
        clock = self.internet.clock
        client = self._client(source.ua_name)
        tab = client.navigate(source.url)
        source.sessions += 1
        report.sessions += 1
        current_telemetry().inc("milking.sessions")
        if not tab.loaded or tab.current_url is None:
            source.failures += 1
            if source.failures >= 20:
                source.active = False  # the upstream URL itself died
            return False
        source.failures = 0
        shot = client.screenshot(tab)
        shot_hash = shot.dhash
        if not matches_any(shot_hash, source.known_hashes):
            return True  # loaded, but drifted away from the campaign
        source.known_hashes.add(shot_hash)
        host = tab.current_url.host
        domain = e2ld(host)
        record = watchlist.get(domain)
        if record is None:
            record = MilkedDomain(
                domain=domain,
                cluster_id=source.cluster_id,
                category=source.category,
                discovered_at=clock.now(),
                listed_at_discovery=self.gsb.lookup(domain, clock.now()),
                last_seen_at=clock.now(),
            )
            watchlist[domain] = record
            report.domains.append(record)
            current_telemetry().inc("milking.domains")
            for observer in self.observers:
                observer.domain_discovered(record, clock.now())
        elif record.last_seen_at < clock.now():
            record.last_seen_at = clock.now()
            for observer in self.observers:
                observer.domain_seen(record, clock.now())
        if config.interact_with_pages:
            self._interact(client, tab, source, report)
        return True

    def _interact(self, client, tab, source: MilkingSource, report: MilkingReport) -> None:
        """Simple page interaction: click the dominant element, collect
        downloads, phone numbers and forward gateways."""
        load = tab.load
        if load is None:
            return
        # Scam phone numbers live in the page source (data attributes).
        for element in load.nodes:
            phone = element.attrs.get("data-phone")
            if phone:
                report.phones.add(phone)
        candidates = load.candidates()
        target = candidates[0] if candidates else load.document
        outcome = client.click(tab, target)
        for entry in outcome.downloads:
            payload = entry.payload
            sha256 = getattr(payload, "sha256", None)
            if sha256 is None:
                continue
            self._payloads[sha256] = payload
            known = self.virustotal.query(sha256, self.internet.clock.now())
            current_telemetry().inc("milking.files")
            report.files.append(
                MilkedFile(
                    sha256=sha256,
                    filename=entry.filename,
                    cluster_id=source.cluster_id,
                    category=source.category,
                    downloaded_at=entry.timestamp,
                    known_to_vt=known is not None,
                    initial_report=known,
                )
            )
        if outcome.navigated_away and tab.current_url is not None:
            landed = tab.current_url
            if e2ld(landed.host) != e2ld(source.url.split("/")[2]):
                report.gateways.add(str(landed))

    def _client(self, ua_name: str) -> DevToolsClient:
        profile: UserAgentProfile = profile_by_name(ua_name)
        return DevToolsClient(
            self.internet, profile, self.vantage, stealth=True, bypass_locking=True
        )


def _member_candidates(
    clusters: list[DiscoveredCampaign],
) -> list[dict[str, set[str]]]:
    """Per cluster, the milkable candidate URLs of its members and the
    user agents that saw each — read in one pass over the run store.

    Each cluster's result is a set map, so the order the members are read
    in cannot matter.
    """
    found: list[dict[str, set[str]]] = [{} for _ in clusters]
    for index, record in cluster_members(clusters):
        candidates = found[index]
        for url in milkable_candidates(record):
            candidates.setdefault(url, set()).add(record.ua_name)
    return found
