"""Vantage points and IP classes.

§3.2 of the paper reports that Propeller and Clickadu serve only benign ads
to requests from institutional networks, Tor exit nodes and AWS ranges, and
that the authors worked around this by crawling from residential laptops.
The simulation reproduces the same cloaking split, so the crawl must be
partitioned across vantage points exactly as in the paper.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass

from repro.rng import rng_for


class IpClass(enum.Enum):
    """Coarse origin classification used by cloaking ad networks."""

    RESIDENTIAL = "residential"
    INSTITUTION = "institution"
    DATACENTER = "datacenter"
    TOR_EXIT = "tor-exit"

    @property
    def looks_residential(self) -> bool:
        """Whether cloaking ad networks treat this origin as a real user."""
        return self is IpClass.RESIDENTIAL


@dataclass(frozen=True)
class VantagePoint:
    """A crawling location: a name, an IPv4 address and its class."""

    name: str
    ip: str
    ip_class: IpClass

    def __post_init__(self) -> None:
        ipaddress.IPv4Address(self.ip)  # raises on malformed input

    @property
    def looks_residential(self) -> bool:
        """Convenience passthrough to :attr:`IpClass.looks_residential`."""
        return self.ip_class.looks_residential


_CLASS_PREFIX = {
    IpClass.RESIDENTIAL: "73.112",
    IpClass.INSTITUTION: "128.192",
    IpClass.DATACENTER: "52.14",
    IpClass.TOR_EXIT: "185.220",
}


def make_vantage(seed: int, name: str, ip_class: IpClass) -> VantagePoint:
    """Create a deterministic vantage point in the class's address block."""
    rng = rng_for(seed, "vantage", name)
    prefix = _CLASS_PREFIX[ip_class]
    ip = f"{prefix}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
    return VantagePoint(name=name, ip=ip, ip_class=ip_class)


def residential_vantages(seed: int) -> list[VantagePoint]:
    """The paper's three residential laptops."""
    return [
        make_vantage(seed, f"laptop-{index}", IpClass.RESIDENTIAL)
        for index in range(1, 4)
    ]


def institution_vantage(seed: int) -> VantagePoint:
    """The university crawling cluster vantage."""
    return make_vantage(seed, "institution", IpClass.INSTITUTION)
