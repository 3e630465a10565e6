"""SEACMA campaigns and their serving infrastructure.

A campaign is one coherent SE operation (Definition 2): a single attack
*look* (one screenshot template) served from a churning pool of throwaway
attack domains, fronted by a long-lived upstream TDS host — the
"milkable" URL of §3.5 (``findglo210.info`` in Figure 4).

The :class:`CampaignServer` plays both roles on the simulated internet:

* the TDS host answers ``/go?cid=...`` with a 302 to the *currently
  active* attack URL, and
* the active attack domain (claimed dynamically through DNS, so retired
  domains immediately stop resolving) serves the SE landing page and the
  payload download endpoint.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.attacks.categories import AttackCategory, CategoryProfile, CATEGORY_PROFILES
from repro.attacks.pages import build_attack_page
from repro.attacks.payloads import PayloadFactory
from repro.adnet.serving import platform_of_ua
from repro.net.http import (
    HttpRequest,
    HttpResponse,
    download_response,
    html_response,
    not_found,
    redirect,
)
from repro.net.server import FetchContext, VirtualServer
from repro.rng import rng_for
from repro.urlkit.domains import DomainGenerator, ThrowawayDomainPool
from repro.urlkit.url import Url, parse_url

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import CrawlScope

#: Campaigns whose TDS went dark mid-study — keeps the milking tracker's
#: failure handling honest (dead milking sources must be retired).
NewDomainHook = Callable[[str, str, float], None]  # (campaign_key, domain, t)


class Campaign:
    """One SEACMA campaign (ground-truth object in the simulated world)."""

    def __init__(
        self,
        key: str,
        category: AttackCategory,
        seed: int,
        *,
        domain_lifetime: tuple[float, float],
        profile: CategoryProfile | None = None,
    ) -> None:
        self.key = key
        self.category = category
        self.profile = profile if profile is not None else CATEGORY_PROFILES[category]
        rng: random.Random = rng_for(seed, "campaign", key)
        generator = DomainGenerator(seed, f"campaign/{key}")
        self.tds_domain = generator.word_salad(tld=rng.choice(("info", "com", "club")))
        self.landing_path = f"/{rng.choice(('lp', 'go', 'offer', 'watch', 'win'))}{rng.randint(1, 99)}"
        self.download_path = "/download/setup"
        self.pool = ThrowawayDomainPool(
            seed,
            key,
            min_lifetime=domain_lifetime[0],
            max_lifetime=domain_lifetime[1],
        )
        self.template_key = f"attack/{key}"
        self.payload_factory = (
            PayloadFactory(seed, key) if self.profile.delivers_payload else None
        )
        self.phone_number = (
            f"+1-8{rng.randint(0, 9)}{rng.randint(0, 9)}-{rng.randint(200, 999)}-{rng.randint(1000, 9999)}"
            if category is AttackCategory.TECH_SUPPORT
            else None
        )
        # Notification campaigns run a long-lived push backend: granted
        # subscriptions keep receiving links to fresh attack domains even
        # after the landing page itself is gone (§4.3).
        self.push_domain = (
            generator.word_salad(tld="net")
            if self.profile.prompts_notification
            else None
        )
        self.customer_url = (
            f"http://{generator.word_salad(tld='net')}/signup"
            if self.profile.forwards_to_customer
            else None
        )
        self._seed = seed
        self._on_new_domain: NewDomainHook | None = None
        self._active_memo: tuple[float, str] | None = None
        self._page_cache: dict[str, object] = {}

    # ------------------------------------------------------------- surface

    @property
    def platforms(self) -> frozenset[str]:
        """Platforms this campaign targets (ad networks filter on this)."""
        return self.profile.platforms

    @property
    def serving_weight(self) -> float:
        """Relative ad-serving weight inside a network's inventory."""
        return self.profile.serving_weight

    def entry_url(self, now: float) -> Url:
        """The campaign's upstream (milkable) TDS URL."""
        return parse_url(f"http://{self.tds_domain}/go?cid={self.key}")

    def active_attack_domain(self, now: float) -> str:
        """The attack domain live at ``now`` (rotating the pool as needed).

        Ad decisions query this several times at the same virtual
        instant; repeated queries at an identical ``now`` cannot rotate
        the pool or surface new domains, so the last answer is memoized.
        """
        memo = self._active_memo
        if memo is not None and memo[0] == now and now < self.pool.next_rotation:
            return memo[1]
        domain = self.attack_domain_window(now)[0]
        self._active_memo = (now, domain)
        return domain

    def attack_domain_window(self, now: float) -> tuple[str, float, float]:
        """The attack domain live at ``now`` and the ``[start, end)``
        window it is live in (see
        :meth:`~repro.urlkit.domains.ThrowawayDomainPool.active_window`).

        Rotating the pool tells the new-domain hook of every domain
        activated up to ``now``, in activation order.
        """
        before = self.pool.domain_count
        window = self.pool.active_window(now)
        if self._on_new_domain is not None and self.pool.domain_count > before:
            for fresh in self.pool.domains_since(before):
                self._on_new_domain(self.key, fresh, self.pool.activation_time(fresh))
        return window

    def attack_url(self, now: float) -> Url:
        """The current attack landing URL ("same URL pattern", §3.5)."""
        domain = self.active_attack_domain(now)
        return parse_url(f"http://{domain}{self.landing_path}?cid={self.key}")

    def set_new_domain_hook(self, hook: NewDomainHook) -> None:
        """Install the world's new-attack-domain observer (feeds GSB)."""
        self._on_new_domain = hook

    def all_attack_domains(self) -> list[str]:
        """Every attack domain the campaign has activated so far."""
        return self.pool.all_domains()

    #: How often campaigns refresh their creative (visual revision), in
    #: seconds.  §1: the system "track[s] the visual components of the
    #: campaigns through time"; revisions are small enough that the
    #: perceptual match set keeps absorbing them.
    VISUAL_REVISION_PERIOD = 10 * 86400.0

    def visual_revision(self, now: float) -> int:
        """The campaign's creative revision number at time ``now``."""
        return int(now // self.VISUAL_REVISION_PERIOD)

    def landing_page(self, domain: str, now: float = 0.0):
        """The (cached) landing page for one of this campaign's domains.

        Pages are stable within a visual-revision period; across periods
        the campaign tweaks its creative slightly (new timestamps,
        rotated testimonials), which shifts the screenshot by a few
        dhash bits without leaving the campaign's perceptual cluster.
        """
        key = (domain, self.visual_revision(now))
        page = self._page_cache.get(key)
        if page is None:
            page = build_attack_page(self, domain, revision=key[1])
            self._page_cache[key] = page
        return page

    def should_deliver_download(self, scope: "CrawlScope") -> bool:
        """Sample whether one interaction in ``scope`` produces a download.

        One download stream per crawl scope: whether the N-th download
        attempt from one crawl unit completes depends only on that unit's
        own attempt count, not on how other units' requests interleave
        (keeps sharded crawls identical to sequential).
        """
        if self.payload_factory is None:
            return False
        rng = scope.stream(self._seed, "campaign-downloads", self.key)
        return rng.random() < self.profile.download_prob


class CampaignServer(VirtualServer):
    """The campaign's presence on the simulated internet."""

    def __init__(self, campaign: Campaign) -> None:
        self.campaign = campaign

    def claims_host(self, host: str, now: float) -> bool:
        # Only the *currently active* attack domain resolves; retired
        # domains become NXDOMAIN, exactly like the paper's dead URLs.
        return host == self.campaign.active_attack_domain(now)

    def claim(self, now: float) -> tuple[str, float, float]:
        return self.campaign.attack_domain_window(now)

    def handle(self, request: HttpRequest, context: FetchContext) -> HttpResponse:
        campaign = self.campaign
        now = context.now
        host = request.url.host
        if host == campaign.tds_domain:
            if request.url.path == "/go":
                return redirect(campaign.attack_url(now))
            return not_found()
        if campaign.push_domain is not None and host == campaign.push_domain:
            if request.url.path == "/feed":
                # The current push payload: a link to the live attack URL.
                return redirect(campaign.attack_url(now))
            return not_found()
        if host == campaign.active_attack_domain(now):
            if request.url.path == campaign.landing_path:
                return html_response(campaign.landing_page(host, now))
            if request.url.path.startswith("/download"):
                return self._serve_download(request, context)
            return not_found()
        return not_found()

    def _serve_download(
        self, request: HttpRequest, context: FetchContext
    ) -> HttpResponse:
        campaign = self.campaign
        factory = campaign.payload_factory
        if factory is None:
            return not_found()
        if not campaign.should_deliver_download(context.scope):
            # Flaky download endpoints are common on these campaigns; the
            # crawler only records the downloads that actually complete.
            return not_found()
        payload = factory.build(platform_of_ua(request.user_agent))
        return download_response(payload, payload.filename)
