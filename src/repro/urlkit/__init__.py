"""URL parsing, public-suffix handling and domain generation."""

from repro.urlkit.url import Url, parse_url
from repro.urlkit.psl import e2ld, public_suffix
from repro.urlkit.domains import DomainGenerator, ThrowawayDomainPool

__all__ = [
    "Url",
    "parse_url",
    "e2ld",
    "public_suffix",
    "DomainGenerator",
    "ThrowawayDomainPool",
]
