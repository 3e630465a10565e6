"""The simulated ad ecosystem: benign web, services, publishers, world."""

from repro.ecosystem.benign import BenignWeb, BenignKind
from repro.ecosystem.materialize import (
    MaterializationStats,
    PageCache,
    SiteRecord,
    SiteSequence,
)
from repro.ecosystem.publisher import (
    PublisherSite,
    PublisherDirectory,
    derive_publisher_page,
)
from repro.ecosystem.publicwww import PublicWWW, SearchHit
from repro.ecosystem.webpulse import WebPulse
from repro.ecosystem.gsb import GoogleSafeBrowsing
from repro.ecosystem.virustotal import VirusTotal, VtReport
from repro.ecosystem.adblock import FilterList, build_filter_list
from repro.ecosystem.world import World, WorldConfig, build_world

__all__ = [
    "BenignWeb",
    "BenignKind",
    "MaterializationStats",
    "PageCache",
    "SiteRecord",
    "SiteSequence",
    "PublisherSite",
    "PublisherDirectory",
    "derive_publisher_page",
    "PublicWWW",
    "SearchHit",
    "WebPulse",
    "GoogleSafeBrowsing",
    "VirusTotal",
    "VtReport",
    "FilterList",
    "build_filter_list",
    "World",
    "WorldConfig",
    "build_world",
]
