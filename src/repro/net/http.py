"""HTTP request/response model for the simulated internet.

The model captures the parts of HTTP the SEACMA measurement pipeline
actually depends on: status codes, the five redirect variants the paper
enumerates (301/302/303/307/308), ``Location`` headers, referrers and the
referrer-suppression policies ad networks use to hide their involvement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.net.ipspace import VantagePoint
from repro.urlkit.url import Url, parse_url


class RedirectKind(enum.Enum):
    """The redirect mechanisms observed in ad-loading chains (§3.4)."""

    HTTP_301 = 301
    HTTP_302 = 302
    HTTP_303 = 303
    HTTP_307 = 307
    HTTP_308 = 308
    META_REFRESH = "meta-refresh"
    JS_LOCATION = "js-location"
    JS_PUSH_STATE = "js-push-state"
    JS_REPLACE_STATE = "js-replace-state"
    WINDOW_OPEN = "window-open"

    @property
    def is_http(self) -> bool:
        """Whether this redirect is carried by an HTTP status code."""
        return isinstance(self.value, int)


class ReferrerPolicy(enum.Enum):
    """Subset of W3C referrer policies used by ad delivery code."""

    DEFAULT = "no-referrer-when-downgrade"
    NO_REFERRER = "no-referrer"
    ORIGIN = "origin"
    UNSAFE_URL = "unsafe-url"


@dataclass(slots=True)
class HttpRequest:
    """A simulated HTTP request.

    ``vantage`` carries the requesting IP class so ad networks can cloak on
    datacenter origins, and ``user_agent`` carries the (possibly spoofed)
    UA string the crawler presents.
    """

    url: Url
    vantage: VantagePoint
    user_agent: str
    method: str = "GET"
    referrer: Url | None = None
    headers: dict[str, str] = field(default_factory=dict)


def sent_referrer(referrer: Url | None, policy: ReferrerPolicy) -> Url | None:
    """The referrer a request carries when the page's ``policy`` applies."""
    if policy is ReferrerPolicy.NO_REFERRER or referrer is None:
        return None
    if policy is ReferrerPolicy.ORIGIN:
        return Url(scheme=referrer.scheme, host=referrer.host, port=referrer.port)
    return referrer


@dataclass(slots=True)
class HttpResponse:
    """A simulated HTTP response.

    ``body`` is deliberately untyped at this layer: page bodies are
    :class:`repro.dom.page.PageContent`, download bodies are
    :class:`repro.attacks.payloads.Payload`, and redirects carry ``None``.
    """

    status: int
    body: Any = None
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "text/html"

    @property
    def ok(self) -> bool:
        """Whether the status is a 2xx success."""
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        """Whether the status is a 3xx redirect with a ``Location``."""
        return 300 <= self.status < 400 and "Location" in self.headers

    @property
    def location(self) -> Url:
        """The redirect target; raises ``KeyError`` for non-redirects."""
        return parse_url(self.headers["Location"])

    @property
    def is_download(self) -> bool:
        """Whether the response delivers a file rather than a page."""
        return self.ok and self.content_type == "application/octet-stream"


def redirect(target: Url | str, kind: RedirectKind = RedirectKind.HTTP_302) -> HttpResponse:
    """Build an HTTP redirect response toward ``target``."""
    if not kind.is_http:
        raise ValueError(f"{kind} is not an HTTP-level redirect")
    return HttpResponse(status=int(kind.value), headers={"Location": str(target)})


def html_response(body: Any) -> HttpResponse:
    """Build a 200 text/html response wrapping a page body."""
    return HttpResponse(status=200, body=body, content_type="text/html")


def download_response(payload: Any, filename: str) -> HttpResponse:
    """Build a file-download response carrying an attack payload."""
    return HttpResponse(
        status=200,
        body=payload,
        headers={"Content-Disposition": f'attachment; filename="{filename}"'},
        content_type="application/octet-stream",
    )


def not_found() -> HttpResponse:
    """Build a 404 response."""
    return HttpResponse(status=404, body=None)


def server_error() -> HttpResponse:
    """Build a 500 response."""
    return HttpResponse(status=500, body=None)
