"""Google Safe Browsing simulator.

The paper's central evasion result (§4.5, Tables 1 and 4): SE attack
domains rotate faster than GSB lists them.  Freshly milked domains are
almost never blacklisted (1.42% at discovery), only 16.2% are listed even
two months later, and for the domains GSB *does* catch, listing lags the
milking discovery by more than 7 days on average.

The simulator reproduces that with a two-level detection model decided
deterministically per campaign/domain:

1. is the campaign on GSB's radar at all
   (:attr:`CategoryProfile.gsb_campaign_rate`), and
2. if so, is this particular domain eventually listed
   (:attr:`CategoryProfile.gsb_domain_rate`), after a log-normal lag
   with mean > 7 days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.attacks.campaign import Campaign
from repro.clock import DAY
from repro.rng import rng_for

#: Log-normal lag parameters: median ~6.3 days, mean ~10.4 days.  The
#: heavy spread gives a small fraction of fast listings, which is what
#: produces the paper's non-zero GSB-at-discovery rates (Table 4 col 2).
_LAG_MU = math.log(6.3 * DAY)
_LAG_SIGMA = 1.0


@dataclass(frozen=True)
class _Decision:
    will_list: bool
    listed_at: float  # absolute virtual time; +inf if never


class GoogleSafeBrowsing:
    """A lagged URL blacklist."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._decisions: dict[str, _Decision] = {}
        self._campaign_of_domain: dict[str, Campaign] = {}
        #: Whether each campaign (by key) is on GSB's radar: one draw per
        #: campaign, made when its first domain is judged.
        self._on_radar: dict[str, bool] = {}
        self.lookup_count = 0

    # ------------------------------------------------------------ learning

    def observe_attack_domain(self, campaign: Campaign, domain: str, activated_at: float) -> None:
        """World hook: a campaign activated a new attack domain.

        GSB's (eventual, probabilistic) detection of the domain is decided
        here, deterministically from the seed — independent of whether or
        when anyone looks the domain up.
        """
        if domain in self._decisions:
            return
        self._campaign_of_domain[domain] = campaign
        profile = campaign.profile
        domain_rng = rng_for(self._seed, "gsb-domain", domain)
        # Burned/reused infrastructure: some fresh domains are already on
        # the blacklist the moment the campaign starts using them.
        if domain_rng.random() < profile.gsb_prelisted_rate:
            self._decisions[domain] = _Decision(will_list=True, listed_at=activated_at)
            return
        campaign_on_radar = self._campaign_on_radar(campaign)
        domain_caught = campaign_on_radar and domain_rng.random() < profile.gsb_domain_rate
        if domain_caught:
            lag = domain_rng.lognormvariate(_LAG_MU, _LAG_SIGMA)
            decision = _Decision(will_list=True, listed_at=activated_at + lag)
        else:
            decision = _Decision(will_list=False, listed_at=math.inf)
        self._decisions[domain] = decision

    def _campaign_on_radar(self, campaign: Campaign) -> bool:
        on_radar = self._on_radar.get(campaign.key)
        if on_radar is None:
            campaign_rng = rng_for(self._seed, "gsb-campaign", campaign.key)
            on_radar = campaign_rng.random() < campaign.profile.gsb_campaign_rate
            self._on_radar[campaign.key] = on_radar
        return on_radar

    # ------------------------------------------------------------- queries

    def lookup(self, domain: str, now: float) -> bool:
        """GSB API lookup: is ``domain`` blacklisted at time ``now``?"""
        self.lookup_count += 1
        decision = self._decisions.get(domain)
        return decision is not None and now >= decision.listed_at

    def listed_time(self, domain: str) -> float | None:
        """When ``domain`` was (or will be) listed; None if never."""
        decision = self._decisions.get(domain)
        if decision is None or not decision.will_list:
            return None
        return decision.listed_at
