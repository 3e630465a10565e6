"""The JS operation set.

Real ad-delivery code is arbitrary obfuscated JavaScript; what the paper's
instrumented Chromium extracts from it is the *sequence of API calls* it
makes (``addEventListener``, ``window.open``, ``location`` assignments,
``history.pushState``, ``setTimeout``, dialog calls, ...).  We therefore
model scripts directly as sequences of these operations: everything the
JSgraph-style log would capture is preserved, everything else is
irrelevant to the measurement pipeline.

Each op is a frozen dataclass; a *handler* is a tuple of ops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.http import RedirectKind

Ops = tuple  # a JS program: tuple of op instances


@dataclass(frozen=True)
class AddListener:
    """``target.addEventListener(event, handler)``.

    ``selector`` is one of: ``"document"``, ``"#<id>"``, ``"img:all"``
    (every image), or ``"iframe:all"``.
    """

    selector: str
    event: str
    handler: Ops
    once: bool = False


@dataclass(frozen=True)
class InjectOverlay:
    """Insert a transparent full-page ``<div>`` with a click handler.

    This is the Figure 1 "transparent ad": the user thinks they click page
    content but hits the overlay.
    """

    handler: Ops
    once: bool = True
    z_index: int = 2147483647


@dataclass(slots=True)
class OpenTab:
    """``window.open(url)`` — popup / pop-under."""

    url: object  # str or callable: see resolve_url
    popunder: bool = False


@dataclass(frozen=True)
class InjectIframe:
    """Insert an ``<iframe src=...>`` — the banner-ad delivery vehicle.

    The browser fetches the frame's document (typically served by the ad
    network) and runs its scripts, which attach the banner's own click
    handlers inside the frame.
    """

    src: object  # str or callable: see resolve_url
    width: int = 300
    height: int = 250


@dataclass(frozen=True)
class Navigate:
    """A same-tab navigation via one of the JS mechanisms of §3.4."""

    url: object  # str or callable: see resolve_url
    mechanism: RedirectKind = RedirectKind.JS_LOCATION


@dataclass(frozen=True)
class SetTimeout:
    """``setTimeout(callback, delay_ms)``; the browser runs pending timers
    while "settling" a page after load."""

    delay_ms: float
    ops: Ops


@dataclass(frozen=True)
class CheckWebdriver:
    """Anti-bot branch on ``navigator.webdriver`` (§3.2 challenges)."""

    if_clean: Ops = ()
    if_automated: Ops = ()


@dataclass(frozen=True)
class Alert:
    """``alert(message)`` — also the building block of tab-locking."""

    message: str
    repeat: int = 1


@dataclass(frozen=True)
class OnBeforeUnload:
    """Register an ``onbeforeunload`` nag handler (tab locking)."""

    message: str


@dataclass(frozen=True)
class AuthDialogLoop:
    """Repeated HTTP-auth dialog spam (tab locking)."""

    rounds: int = 3


@dataclass(frozen=True)
class RequestNotificationPermission:
    """``Notification.requestPermission()`` — the Chrome-notification SE
    vector of §4.3.

    ``push_endpoint`` is where granted subscriptions receive pushes
    from; for SE campaigns it is a long-lived upstream (like the TDS),
    which makes granted subscriptions a second trackable channel.
    """

    prompt_text: str
    push_endpoint: str | None = None


@dataclass(frozen=True)
class TriggerDownload:
    """Force a file download (fake-software / scareware payloads)."""

    url: object  # str or callable: see resolve_url


@dataclass(frozen=True)
class Beacon:
    """Fire a tracking request (analytics pixel, ad-network stats)."""

    url: object  # str or callable: see resolve_url


@dataclass(frozen=True)
class Script:
    """A script attached to a page.

    ``url`` is the fetch origin of the code (``None`` for inline snippets);
    it becomes the provenance recorded on every API call the script makes,
    which is what backtracking graphs are built from.  ``source_text`` is
    the (possibly obfuscated) code body indexed by the PublicWWW simulator.
    """

    ops: Ops
    url: str | None = None
    source_text: str = ""


def resolve_url(expr: object, now: float) -> str:
    """Evaluate a URL operand at virtual time ``now``.

    A URL may be static (a ``str``) or computed at execution time from
    the page's serving context (a callable of ``now``), which is how ad
    networks pick a fresh click URL per impression.
    """
    if callable(expr):
        return str(expr(now))
    return str(expr)


def handler(*ops: object) -> Ops:
    """Convenience constructor for handler tuples."""
    return tuple(ops)
