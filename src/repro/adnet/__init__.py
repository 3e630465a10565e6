"""Low-tier ad-network models: specs, snippets, and serving endpoints."""

from repro.adnet.spec import (
    AdNetworkSpec,
    DISCOVERABLE_NETWORK_SPECS,
    SEED_NETWORK_SPECS,
)
from repro.adnet.snippets import AdTactic, build_snippet
from repro.adnet.serving import AdNetworkServer

__all__ = [
    "AdNetworkSpec",
    "SEED_NETWORK_SPECS",
    "DISCOVERABLE_NETWORK_SPECS",
    "AdTactic",
    "build_snippet",
    "AdNetworkServer",
]
