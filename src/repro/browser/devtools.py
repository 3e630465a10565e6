"""Browser automation drivers.

§3.2 implementation challenges: Selenium WebDriver and PhantomJS are
trivially detected by anti-bot JS; even Chromium's DevTools protocol sets
``navigator.webdriver`` when active.  The paper's solution is a custom
DevTools client plus a source patch hiding the flag.

We model the three automation options so the anti-bot story can be
reproduced and measured:

* :class:`SeleniumLikeDriver` — always detectable;
* :class:`DevToolsClient` with ``stealth=False`` — stock DevTools,
  detectable through ``navigator.webdriver``;
* :class:`DevToolsClient` with ``stealth=True`` — the patched build the
  paper used, invisible to the checks.
"""

from __future__ import annotations

from repro.browser.browser import Browser, ClickOutcome, Tab
from repro.browser.screenshot import Screenshot
from repro.browser.useragent import UserAgentProfile
from repro.dom.nodes import Element
from repro.net.ipspace import VantagePoint
from repro.net.network import Internet
from repro.urlkit.url import Url


class DevToolsClient:
    """Custom Chrome-DevTools-protocol automation client.

    The driver owns the browser it pilots; crawler code talks only to the
    driver, mirroring how the real crawler commandeers headless Chromium.
    """

    #: What the driver does to ``navigator.webdriver`` when not stealthy.
    exposes_webdriver_flag = True

    def __init__(
        self,
        internet: Internet,
        profile: UserAgentProfile,
        vantage: VantagePoint,
        *,
        stealth: bool = True,
        bypass_locking: bool = True,
        grant_notifications: bool = False,
    ) -> None:
        self.browser = Browser(
            internet,
            profile,
            vantage,
            stealth=stealth,
            bypass_locking=bypass_locking,
            grant_notifications=grant_notifications,
        )

    @property
    def log(self):
        """The piloted browser's session log."""
        return self.browser.log

    def navigate(self, url: str | Url, tab: Tab | None = None) -> Tab:
        """Point a tab at ``url`` and wait for it to settle."""
        return self.browser.visit(url, tab=tab)

    def click(self, tab: Tab, element: Element) -> ClickOutcome:
        """Issue a trusted click (or tap, for mobile profiles)."""
        return self.browser.click(tab, element)

    def screenshot(self, tab: Tab) -> Screenshot:
        """Capture the tab's rendering."""
        return self.browser.screenshot(tab)


class SeleniumLikeDriver(DevToolsClient):
    """A WebDriver-style automation client.

    Always advertises automation (``navigator.webdriver`` true plus the
    extra fingerprints anti-bot libraries look for), so cloaking ad code
    serves it benign content.  Exists for the §3.2 comparison experiments.
    """

    def __init__(
        self,
        internet: Internet,
        profile: UserAgentProfile,
        vantage: VantagePoint,
    ) -> None:
        super().__init__(internet, profile, vantage, stealth=False, bypass_locking=False)
