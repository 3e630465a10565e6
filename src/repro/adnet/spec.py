"""Ad-network specifications.

The seed list reproduces the 11 low-tier networks of Table 3 with their
measured behavioural parameters:

* ``code_domain_count`` — how many domains host the network's JS snippet
  code (RevenueHits 517, AdSterra 578, ... PopMyAds 1), the ad-blocker
  evasion tactic of §4.4;
* ``se_rate`` — the fraction of the network's ad clicks that land on SE
  attack pages (Table 3's ``% SE Attack Pages`` column);
* ``volume_weight`` — relative landing-page volume (Table 3's ``# Landing
  Pages``), which drives how many publishers embed each network;
* ``cloaks_nonresidential`` — Propeller and Clickadu serve only benign
  ads to datacenter/institution/Tor origins (§3.2);
* ``checks_webdriver`` — networks whose snippet bails out when
  ``navigator.webdriver`` is visible (§3.2 implementation challenges);
* ``abp_blocked`` — whether AdBlock Plus filter lists cover the network's
  static domains (only Clicksor, per the §4.4 pilot).

Three further networks (Ero Advertising, Yllix, Ad-Center) are *not* in
the seed list: the paper discovers them by manually analysing "unknown"
attributions (§3.6/§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AdNetworkSpec:
    """Static description of one low-tier ad network."""

    name: str
    key: str
    code_domain_count: int
    se_rate: float
    volume_weight: float
    invariant_token: str
    cloaks_nonresidential: bool = False
    checks_webdriver: bool = False
    abp_blocked: bool = False
    adult_focused: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.se_rate <= 1.0:
            raise ValueError(f"{self.name}: se_rate must be in [0, 1]")
        if self.code_domain_count < 1:
            raise ValueError(f"{self.name}: needs at least one code domain")
        if self.volume_weight <= 0:
            raise ValueError(f"{self.name}: volume weight must be positive")


#: The 11 seed networks of Table 3, in the paper's row order.
SEED_NETWORK_SPECS: tuple[AdNetworkSpec, ...] = (
    AdNetworkSpec(
        name="RevenueHits", key="revenuehits", code_domain_count=517,
        se_rate=0.1967, volume_weight=15635, invariant_token="_rhjs_q",
    ),
    AdNetworkSpec(
        name="AdSterra", key="adsterra", code_domain_count=578,
        se_rate=0.5062, volume_weight=15102, invariant_token="atag_srv",
    ),
    AdNetworkSpec(
        name="PopCash", key="popcash", code_domain_count=2,
        se_rate=0.6427, volume_weight=9734, invariant_token="pcuid_var",
    ),
    AdNetworkSpec(
        name="Propeller", key="propeller", code_domain_count=4,
        se_rate=0.4229, volume_weight=8206, invariant_token="propel_zn",
        cloaks_nonresidential=True, checks_webdriver=True,
    ),
    AdNetworkSpec(
        name="PopAds", key="popads", code_domain_count=3,
        se_rate=0.1874, volume_weight=4658, invariant_token="_pao_seed",
        checks_webdriver=True,
    ),
    AdNetworkSpec(
        name="Clickadu", key="clickadu", code_domain_count=10,
        se_rate=0.3014, volume_weight=2814, invariant_token="cdu_tagq",
        cloaks_nonresidential=True,
    ),
    AdNetworkSpec(
        name="AdCash", key="adcash", code_domain_count=14,
        se_rate=0.5624, volume_weight=1698, invariant_token="acash_zid",
    ),
    AdNetworkSpec(
        name="HilltopAds", key="hilltopads", code_domain_count=46,
        se_rate=0.0643, volume_weight=1198, invariant_token="htads_slt",
    ),
    AdNetworkSpec(
        name="PopMyAds", key="popmyads", code_domain_count=1,
        se_rate=0.0863, volume_weight=1194, invariant_token="pma_fid",
    ),
    AdNetworkSpec(
        name="AdMaven", key="admaven", code_domain_count=39,
        se_rate=0.2460, volume_weight=496, invariant_token="mvn_ptag",
    ),
    AdNetworkSpec(
        name="Clicksor", key="clicksor", code_domain_count=4,
        se_rate=0.0435, volume_weight=276, invariant_token="csor_pid",
        abp_blocked=True,
    ),
)

#: Networks the pipeline should *discover* from unknown attributions.
DISCOVERABLE_NETWORK_SPECS: tuple[AdNetworkSpec, ...] = (
    AdNetworkSpec(
        name="Ero Advertising", key="eroadvertising", code_domain_count=8,
        se_rate=0.38, volume_weight=1400, invariant_token="eroadv_cb",
        adult_focused=True,
    ),
    AdNetworkSpec(
        name="Yllix", key="yllix", code_domain_count=5,
        se_rate=0.33, volume_weight=900, invariant_token="ylx_mid",
    ),
    AdNetworkSpec(
        name="Ad-Center", key="adcenter", code_domain_count=3,
        se_rate=0.29, volume_weight=600, invariant_token="adcntr_k",
    ),
)

ALL_NETWORK_SPECS: tuple[AdNetworkSpec, ...] = SEED_NETWORK_SPECS + DISCOVERABLE_NETWORK_SPECS
