"""A small, strict URL type for the simulated web.

The real system deals with live URLs; here every URL flowing through the
crawler, the backtracking graphs and the milking tracker is a :class:`Url`.
The type is frozen and hashable so URLs can key dictionaries, graph nodes and
sets directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from urllib.parse import parse_qsl

from repro.errors import UrlError

_SCHEMES = ("http", "https")
_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?(\.[a-z0-9]([a-z0-9-]*[a-z0-9])?)*$")
_URL_RE = re.compile(
    r"^(?P<scheme>[a-z][a-z0-9+.-]*)://"
    r"(?P<host>[^/:?#]+)"
    r"(?::(?P<port>\d+))?"
    r"(?P<path>/[^?#]*)?"
    r"(?:\?(?P<query>[^#]*))?"
    r"(?:#(?P<fragment>.*))?$"
)


@dataclass(frozen=True)
class Url:
    """An absolute http(s) URL.

    >>> u = parse_url("https://findglo210.info/go?cid=42")
    >>> u.host, u.path, u.query
    ('findglo210.info', '/go', 'cid=42')
    >>> str(u)
    'https://findglo210.info/go?cid=42'
    """

    scheme: str
    host: str
    port: int | None = None
    path: str = "/"
    query: str = ""
    fragment: str = ""
    _params: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise UrlError(f"unsupported scheme {self.scheme!r}")
        host = self.host.lower().rstrip(".")
        if not _HOST_RE.match(host):
            raise UrlError(f"invalid host {self.host!r}")
        object.__setattr__(self, "host", host)
        path = self.path or "/"
        if not path.startswith("/"):
            raise UrlError(f"path must be absolute, got {self.path!r}")
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "_params", tuple(parse_qsl(self.query, keep_blank_values=True)))

    @property
    def origin(self) -> str:
        """Return ``scheme://host[:port]``."""
        port = f":{self.port}" if self.port is not None else ""
        return f"{self.scheme}://{self.host}{port}"

    @property
    def params(self) -> dict[str, str]:
        """Query parameters as a dict (last value wins on duplicates)."""
        return dict(self._params)

    def join(self, reference: str) -> "Url":
        """Resolve ``reference`` (absolute URL or absolute path) against self."""
        if "://" in reference:
            return parse_url(reference)
        if reference.startswith("/"):
            path, _, tail = reference.partition("?")
            query, _, fragment = tail.partition("#")
            return replace(self, path=path, query=query, fragment=fragment)
        raise UrlError(f"only absolute references are supported, got {reference!r}")

    def __str__(self) -> str:
        # Urls are frozen, so the rendered form is computed once and
        # memoized on the instance (hot: every fetch/log/store line
        # stringifies URLs).
        out = self.__dict__.get("_str")
        if out is None:
            out = f"{self.origin}{self.path}"
            if self.query:
                out += f"?{self.query}"
            if self.fragment:
                out += f"#{self.fragment}"
            object.__setattr__(self, "_str", out)
        return out


def parse_url(raw: str | Url) -> Url:
    """Parse ``raw`` into a :class:`Url`, raising :class:`UrlError` on junk.

    Parsed results are memoized: :class:`Url` is frozen, so every caller
    can safely share the instance cached for a given string.
    """
    if isinstance(raw, Url):
        return raw
    return _parse_url_cached(raw)


@lru_cache(maxsize=16384)
def _parse_url_cached(raw: str) -> Url:
    if not isinstance(raw, str):
        raise UrlError(f"expected str, got {type(raw).__name__}")
    match = _URL_RE.match(raw.strip())
    if match is None:
        raise UrlError(f"malformed URL {raw!r}")
    groups = match.groupdict()
    return Url(
        scheme=groups["scheme"],
        host=groups["host"],
        port=int(groups["port"]) if groups["port"] else None,
        path=groups["path"] or "/",
        query=groups["query"] or "",
        fragment=groups["fragment"] or "",
    )
