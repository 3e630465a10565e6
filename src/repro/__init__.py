"""SEACMA: discovery and tracking of social-engineering ad campaigns.

A full reproduction of *"What You See is NOT What You Get: Discovering
and Tracking Social Engineering Attack Campaigns"* (Vadrevu & Perdisci,
IMC 2019), including the simulated web/ad ecosystem the measurement
system runs against.

Quickstart::

    from repro import WorldConfig, build_world, SeacmaPipeline

    world = build_world(WorldConfig.tiny())
    pipeline = SeacmaPipeline(world)
    result = pipeline.run()
    print(len(result.discovery.seacma_campaigns), "campaigns discovered")
"""

from repro.ecosystem.world import World, WorldConfig, build_world
from repro.core.pipeline import PipelineResult, SeacmaPipeline
from repro.core.farm import CrawlerFarm, FarmConfig, CrawlDataset
from repro.faults import (
    FaultConfig,
    FaultPlan,
    FaultStats,
    Resilience,
    RetryPolicy,
)
from repro.core.crawler import AdInteraction, CrawlerConfig
from repro.core.discovery import DiscoveryResult, discover_campaigns
from repro.core.milking import MilkingConfig, MilkingReport, MilkingTracker
from repro.core.attribution import attribute_interactions, discover_new_networks
from repro.core import reports
from repro import analysis

__version__ = "1.0.0"

__all__ = [
    "World",
    "WorldConfig",
    "build_world",
    "PipelineResult",
    "SeacmaPipeline",
    "CrawlerFarm",
    "FarmConfig",
    "CrawlDataset",
    "FaultConfig",
    "FaultPlan",
    "FaultStats",
    "Resilience",
    "RetryPolicy",
    "AdInteraction",
    "CrawlerConfig",
    "DiscoveryResult",
    "discover_campaigns",
    "MilkingConfig",
    "MilkingReport",
    "MilkingTracker",
    "attribute_interactions",
    "discover_new_networks",
    "reports",
    "analysis",
    "__version__",
]
