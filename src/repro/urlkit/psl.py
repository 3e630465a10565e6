"""Effective second-level domain (e2LD) extraction.

The paper clusters SEACMA screenshots on ``(dhash, e2LD)`` pairs, where the
e2LD is derived with Mozilla's Public Suffix List.  We embed the subset of
the PSL that covers every TLD used by the simulated ecosystem, plus the
common multi-label suffixes needed to make the extraction logic non-trivial
(``co.uk``, ``com.br``, ...).
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import UrlError

# A curated subset of publicsuffix.org.  Multi-label entries are what make
# naive "last two labels" extraction wrong, so several are included.
_SUFFIXES: frozenset[str] = frozenset(
    {
        # Generic TLDs heavily used by low-tier ad ecosystems.
        "com", "net", "org", "info", "biz", "club", "online", "site", "xyz",
        "top", "pro", "live", "stream", "download", "loan", "bid", "win",
        "trade", "date", "racing", "review", "party", "science", "accountant",
        "men", "work", "space", "website", "tech", "fun", "icu", "buzz",
        "li", "io", "me", "tv", "cc", "ws", "to", "st", "ly",
        # Country codes.
        "us", "uk", "de", "fr", "es", "it", "nl", "ru", "in", "br", "mx",
        "jp", "cn", "au", "ca", "pl", "ua", "tr", "id", "vn", "th",
        # Multi-label public suffixes.
        "co.uk", "org.uk", "ac.uk", "gov.uk",
        "com.br", "net.br", "org.br",
        "com.mx", "com.au", "net.au", "org.au",
        "co.in", "net.in", "org.in", "co.jp", "ne.jp", "or.jp",
        "com.cn", "net.cn", "org.cn", "com.tr", "com.ua",
        # Dynamic-DNS style private suffixes (treated as public by the PSL).
        "blogspot.com", "github.io", "herokuapp.com", "netlify.app",
        "000webhostapp.com", "weebly.com", "wordpress.com",
    }
)

_MAX_SUFFIX_LABELS = max(suffix.count(".") + 1 for suffix in _SUFFIXES)


def public_suffix(host: str) -> str:
    """Return the longest matching public suffix of ``host``.

    Falls back to the final label when the TLD is unknown, mirroring the
    PSL's implicit ``*`` rule.

    >>> public_suffix("ads.example.co.uk")
    'co.uk'
    """
    labels = _labels(host)
    for take in range(min(_MAX_SUFFIX_LABELS, len(labels)), 0, -1):
        candidate = ".".join(labels[-take:])
        if candidate in _SUFFIXES:
            return candidate
    return labels[-1]


@lru_cache(maxsize=16384)
def e2ld(host: str) -> str:
    """Return the effective second-level domain of ``host``.

    This is the public suffix plus one label — the registrable domain the
    paper clusters and blacklists on.  Results are memoized (bounded, like
    :func:`~repro.urlkit.url.parse_url`): a run asks for the same hosts
    again and again (about 96% of calls on ``crawl`` and ``milk`` hit;
    see docs/performance.md).

    >>> e2ld("cdn.live6nmld10.club")
    'live6nmld10.club'
    >>> e2ld("video.streams.example.co.uk")
    'example.co.uk'
    """
    labels = _labels(host)
    suffix = public_suffix(host)
    suffix_len = suffix.count(".") + 1
    if len(labels) <= suffix_len:
        # The host *is* a bare public suffix; treat it as its own e2LD.
        return ".".join(labels)
    return ".".join(labels[-(suffix_len + 1):])


def _labels(host: str) -> list[str]:
    host = host.strip().lower().rstrip(".")
    if not host:
        raise UrlError("empty hostname")
    labels = host.split(".")
    if any(not label for label in labels):
        raise UrlError(f"hostname with empty label: {host!r}")
    return labels
