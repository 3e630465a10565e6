"""The instrumented headless browser.

This is the simulation counterpart of the paper's custom Chromium build:
it loads pages through the simulated internet, executes their scripts with
full JS-API logging, follows every redirect flavour (HTTP 30x, meta
refresh, ``location`` assignments, ``history.pushState``), opens popups,
bypasses page-locking dialogs, and captures screenshots.

Two instrumentation switches reproduce the paper's engineering story:

* ``stealth`` — with the custom DevTools client, ``navigator.webdriver``
  is hidden from anti-bot ad code; a Selenium-style driver would leave it
  visible and get served benign content (§3.2).
* ``bypass_locking`` — the source-level patch that dismisses JS modal
  dialogs, auth loops and ``onbeforeunload`` nags so the crawler can
  navigate away from "locked" scam pages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.browser.logging import (
    BeaconEntry,
    BrowserLog,
    DialogEntry,
    DnsFailureEntry,
    DownloadEntry,
    FetchFailureEntry,
    FrameLoadEntry,
    NavigationEntry,
    NotificationPromptEntry,
    ScriptFetchEntry,
    TabCrashEntry,
    TabOpenEntry,
)
from repro.browser.screenshot import Screenshot, capture
from repro.browser.useragent import UserAgentProfile
from repro.dom.events import EventListener
from repro.dom.nodes import Element, div
from repro.dom.page import PageContent, PageLoad
from repro.errors import (
    BrowserError,
    RedirectLoopError,
    TransientError,
    UrlError,
)
from repro.js.api import Ops
from repro.js.engine import JsEngine
from repro.net.http import HttpRequest, RedirectKind, ReferrerPolicy, sent_referrer
from repro.net.ipspace import VantagePoint
from repro.net.network import Internet
from repro.urlkit.url import Url, parse_url

MAX_NAVIGATION_DEPTH = 8
SETTLE_BUDGET_MS = 10_000.0


@dataclass(slots=True)
class Tab:
    """One browser tab."""

    tab_id: int
    opener_id: int | None = None
    current_url: Url | None = None
    #: This tab's load of the page it displays (None: no live page).
    load: PageLoad | None = None
    history: list[Url] = field(default_factory=list)
    load_epoch: int = 0
    unload_nag: str | None = None
    locked: bool = False
    timers: list[tuple[float, Ops, str | None]] = field(default_factory=list)
    #: Why the last load left the tab dead: ``"dns"``, ``"http"``,
    #: ``"transient"``, ``"tab-crash"``, ``"redirect-loop"`` or None.
    failure: str | None = None

    @property
    def page(self) -> PageContent | None:
        """The served page the tab displays (shared with every other load)."""
        load = self.load
        return load.page if load is not None else None

    @property
    def loaded(self) -> bool:
        """Whether the tab currently displays a live page."""
        return self.load is not None


@dataclass(slots=True)
class ClickOutcome:
    """What a single click produced (the crawler's ad-trigger signal)."""

    handlers_fired: int = 0
    new_tabs: list[Tab] = field(default_factory=list)
    navigated_away: bool = False
    #: The click's downloads as the log stores them (see :attr:`downloads`).
    download_rows: list[tuple] = field(default_factory=list)
    dialogs: int = 0

    @property
    def downloads(self) -> list[DownloadEntry]:
        """The downloads the click triggered, in order."""
        return [DownloadEntry(*row) for row in self.download_rows]

    @property
    def triggered_ad(self) -> bool:
        """§3.2 heuristic: a new third-party tab or a navigation away."""
        return bool(self.new_tabs) or self.navigated_away


class Browser:
    """A single instrumented browser instance."""

    def __init__(
        self,
        internet: Internet,
        profile: UserAgentProfile,
        vantage: VantagePoint,
        *,
        stealth: bool = True,
        bypass_locking: bool = True,
        grant_notifications: bool = False,
        log: BrowserLog | None = None,
    ) -> None:
        self.internet = internet
        self.profile = profile
        self.vantage = vantage
        self.stealth = stealth
        self.bypass_locking = bypass_locking
        #: Whether the automation policy clicks "Allow" on notification
        #: permission prompts (to observe the push channel, §4.3).
        self.grant_notifications = grant_notifications
        self.log = log if log is not None else BrowserLog()
        self.tabs: list[Tab] = []
        self._tab_ids = itertools.count(1)

    # ------------------------------------------------------------------ API

    def new_tab(self, opener: Tab | None = None) -> Tab:
        """Open an empty tab."""
        tab = Tab(tab_id=next(self._tab_ids), opener_id=opener.tab_id if opener else None)
        self.tabs.append(tab)
        return tab

    def visit(self, url: str | Url, tab: Tab | None = None) -> Tab:
        """Navigate a (possibly new) tab to ``url`` and settle the page."""
        target = parse_url(url)
        if tab is None:
            tab = self.new_tab()
        plan = self.internet.fault_plan
        if plan is not None and plan.tab_crash(self.internet.scope):
            resilience = self.internet.resilience
            if resilience is not None and resilience.retry.should_retry(0):
                # Relaunch the crashed tab process after one backoff; the
                # crash hit before any request so the relaunch replays the
                # world exactly.
                resilience.backoff(0, "tab", target.host)
            else:
                self.log.add(
                    TabCrashEntry, (self.internet.clock.now(), tab.tab_id, str(target))
                )
                tab.load_epoch += 1
                tab.history.append(target)
                tab.current_url = target
                tab.load = None
                tab.failure = "tab-crash"
                return tab
        self._load(tab, target, cause="initial", source_url=None, referrer=None, depth=0)
        return tab

    def click(self, tab: Tab, element: Element) -> ClickOutcome:
        """Dispatch a click (or tap) on ``element`` and report the effects."""
        load = tab.load
        if load is None:
            raise BrowserError("cannot click in a tab with no page")
        # A transparent full-page overlay (Figure 1) sits on top of
        # everything: a click aimed at any element actually hits it.
        overlays = load.overlays()
        if overlays and element not in overlays:
            element = overlays[0]
        log = self.log
        mark = log.mark()
        # Tabs are only ever appended: the ones past this count are new.
        tabs = self.tabs
        tabs_before = len(tabs)
        epoch_before = tab.load_epoch
        # A click on an iframe lands inside its sub-document first (the
        # banner ad's own handlers), then bubbles to the outer page.
        handlers: list[EventListener] = []
        frame = load.frames.get(element)
        if frame is not None:
            handlers.extend(frame.click_handlers(frame.document))
        handlers.extend(load.click_handlers(element))
        if not handlers:
            return ClickOutcome()  # no handler ran, so nothing changed
        # One host for the whole gesture: it holds no state of its own and
        # reads the tab's current load on every call.
        engine = JsEngine(_TabHost(self, tab, depth=0))
        fired = 0
        for listener in handlers:
            if tab.load_epoch != epoch_before:
                break  # the page we clicked on is gone
            engine.run(listener.handler, listener.source_url)
            listener.mark_fired()
            fired += 1
            # One ad per user gesture: once a handler produced a popup or
            # replaced the page, remaining handlers wait for the next click.
            if len(tabs) != tabs_before or tab.load_epoch != epoch_before:
                break
        return ClickOutcome(
            handlers_fired=fired,
            new_tabs=tabs[tabs_before:],
            navigated_away=tab.load_epoch != epoch_before,
            download_rows=log.rows_since(mark, DownloadEntry),
            dialogs=len(log.rows_since(mark, DialogEntry)),
        )

    def screenshot(self, tab: Tab) -> Screenshot:
        """Capture the tab's screenshot (dead-page visual if load failed)."""
        url = str(tab.current_url) if tab.current_url is not None else "about:blank"
        return capture(tab.page, url, self.internet.clock.now(), tab.tab_id)

    @property
    def webdriver_visible(self) -> bool:
        """What anti-bot scripts see in ``navigator.webdriver``."""
        return not self.stealth

    # ---------------------------------------------------------- page loads

    def _load(
        self,
        tab: Tab,
        url: Url,
        *,
        cause: str,
        source_url: str | None,
        referrer: Url | None,
        depth: int,
    ) -> None:
        if depth > MAX_NAVIGATION_DEPTH:
            return  # runaway redirect via JS; give up quietly like a timeout
        if not self._leave_current_page(tab):
            return  # locked and not bypassing: navigation suppressed
        page = tab.page
        policy = page.referrer_policy if page is not None else ReferrerPolicy.DEFAULT
        request = HttpRequest(
            url=url,
            vantage=self.vantage,
            user_agent=self.profile.ua_string,
            referrer=sent_referrer(referrer, policy),
        )
        try:
            result = self.internet.fetch(request)
        except RedirectLoopError:
            # Endless HTTP redirect chains behave like a timed-out load.
            tab.load_epoch += 1
            tab.history.append(url)
            tab.current_url = url
            tab.load = None
            tab.failure = "redirect-loop"
            return
        except TransientError as error:
            # The retry budget could not absorb an injected fault: the
            # tab shows a dead-page error instead of content.
            self.log.add(
                FetchFailureEntry,
                (self.internet.clock.now(), tab.tab_id, str(url), str(error)),
            )
            tab.load_epoch += 1
            tab.history.append(url)
            tab.current_url = url
            tab.load = None
            tab.failure = "transient"
            return
        now = self.internet.clock.now()
        # Log the navigation chain: requested URL with the original cause,
        # every HTTP hop after it with cause http-redirect.
        log = self.log
        tab_id = tab.tab_id
        chain = result.chain
        sent = request.referrer
        log.add(
            NavigationEntry,
            (now, tab_id, str(chain[0]), cause, source_url, str(sent) if sent else None),
        )
        for hop in chain[1:]:
            log.add(NavigationEntry, (now, tab_id, str(hop), "http-redirect", None, None))
        final_url = result.final_url
        tab.load_epoch += 1
        tab.unload_nag = None
        tab.locked = False
        tab.timers = []
        tab.failure = None
        tab.history.append(final_url)
        if result.dns_failure or not result.response.ok:
            if result.dns_failure:
                log.add(DnsFailureEntry, (now, tab_id, str(final_url)))
            tab.current_url = final_url
            tab.load = None
            tab.failure = "dns" if result.dns_failure else "http"
            return
        if result.response.is_download:
            self._record_download(tab, final_url, result.response.body, source_url)
            return  # downloads don't replace the page
        page = result.response.body
        if not isinstance(page, PageContent):
            tab.current_url = final_url
            tab.load = None
            return
        tab.current_url = final_url
        # Served content is shared; what this load adds lives in its PageLoad.
        tab.load = page.instantiate()
        self._run_page_scripts(tab, page, depth)
        self._load_iframes(tab, depth)
        self._settle(tab, depth)

    def _leave_current_page(self, tab: Tab) -> bool:
        """Handle unload nags when navigating away; False blocks the move."""
        if tab.page is None or tab.unload_nag is None:
            return True
        self.log.add(
            DialogEntry,
            (
                self.internet.clock.now(),
                tab.tab_id,
                "beforeunload",
                tab.unload_nag,
                str(tab.current_url),
                self.bypass_locking,
            ),
        )
        return self.bypass_locking

    def _run_page_scripts(self, tab: Tab, page: PageContent, depth: int) -> None:
        if not page.scripts:
            return
        epoch = tab.load_epoch
        engine = JsEngine(_TabHost(self, tab, depth))
        for script in page.scripts:
            if tab.load_epoch != epoch:
                break  # a script navigated; remaining scripts never run
            if script.url:
                self.log.add(
                    ScriptFetchEntry,
                    (self.internet.clock.now(), tab.tab_id, str(tab.current_url), script.url),
                )
            engine.run_script(script)

    def _load_iframes(self, tab: Tab, depth: int) -> None:
        """Fetch and attach iframe sub-documents (one nesting level).

        Banner ads arrive this way: the snippet injects an ``<iframe>``
        whose document is served by the ad network and carries its own
        click handlers.
        """
        load = tab.load
        if load is None or depth > MAX_NAVIGATION_DEPTH:
            return
        for frame in load.iframes():
            source = frame.attrs.get("src", "")
            if frame in load.frames or "://" not in source:
                continue
            try:
                frame_url = parse_url(source)
            except UrlError:
                continue
            request = HttpRequest(
                url=frame_url,
                vantage=self.vantage,
                user_agent=self.profile.ua_string,
                referrer=tab.current_url,
            )
            try:
                result = self.internet.fetch(request)
            except (RedirectLoopError, TransientError):
                continue  # a lost banner frame doesn't kill the page
            self.log.add(
                FrameLoadEntry,
                (
                    self.internet.clock.now(),
                    tab.tab_id,
                    str(tab.current_url),
                    str(result.final_url),
                ),
            )
            body = result.response.body
            if not result.response.ok or not isinstance(body, PageContent):
                continue
            sub = load.frames[frame] = body.instantiate()
            # Run the frame's scripts against the frame's document, with
            # tab-level effects (popups, navigations) applying to the tab.
            epoch = tab.load_epoch
            engine = JsEngine(_TabHost(self, tab, depth, load=sub))
            for script in body.scripts:
                if tab.load_epoch != epoch:
                    return
                if script.url:
                    self.log.add(
                        ScriptFetchEntry,
                        (
                            self.internet.clock.now(),
                            tab.tab_id,
                            str(result.final_url),
                            script.url,
                        ),
                    )
                engine.run_script(script)

    def _settle(self, tab: Tab, depth: int) -> None:
        """Run due timers and the page's meta refresh, as a real browser
        would while the crawler waits out its per-page budget."""
        epoch = tab.load_epoch
        budget = SETTLE_BUDGET_MS
        if tab.timers:
            engine = JsEngine(_TabHost(self, tab, depth))
            for delay_ms, ops, script_url in sorted(tab.timers, key=lambda item: item[0]):
                if tab.load_epoch != epoch or delay_ms > budget:
                    break
                engine.run(ops, script_url)
            if tab.load_epoch != epoch:
                return
        page = tab.page
        if page is not None and page.meta_refresh is not None:
            delay_s, target = page.meta_refresh
            if delay_s * 1000.0 <= budget:
                try:
                    target_url = tab.current_url.join(target) if tab.current_url else parse_url(target)
                except UrlError:
                    return
                self._load(
                    tab,
                    target_url,
                    cause="meta-refresh",
                    source_url=None,
                    referrer=tab.current_url,
                    depth=depth + 1,
                )

    def _record_download(self, tab: Tab, url: Url, payload: object, source_url: str | None) -> None:
        filename = getattr(payload, "filename", url.path.rsplit("/", 1)[-1] or "download.bin")
        self.log.add(
            DownloadEntry,
            (
                self.internet.clock.now(),
                tab.tab_id,
                str(url),
                str(filename),
                payload,
                str(tab.current_url) if tab.current_url else "",
                source_url,
            ),
        )


class _TabHost:
    """The :class:`~repro.js.engine.JsHost` bound to one tab.

    ``load`` overrides the document scripts operate on (used for iframe
    sub-documents); tab-level effects always apply to the owning tab.
    """

    def __init__(self, browser: Browser, tab: Tab, depth: int, load: PageLoad | None = None) -> None:
        self._browser = browser
        self._tab = tab
        self._depth = depth
        self._load = load

    @property
    def _document_load(self) -> PageLoad | None:
        return self._load if self._load is not None else self._tab.load

    # -- engine surface -------------------------------------------------

    def now(self) -> float:
        return self._browser.internet.clock.now()

    def log_api(self, api: str, args: tuple, script_url: str | None) -> None:
        self._browser.log.js.record(
            self.now(), api, args, script_url, self._tab.current_url
        )

    def attach_listener(
        self, selector: str, event: str, handler: Ops, once: bool, script_url: str | None
    ) -> None:
        load = self._document_load
        if load is None:
            return
        source_url = script_url or ""
        for element in self._resolve(selector, load):
            load.add_listener(
                element,
                EventListener(event_type=event, handler=handler, source_url=source_url, once=once),
            )

    def inject_overlay(self, handler: Ops, once: bool, z_index: int, script_url: str | None) -> None:
        load = self._document_load
        if load is None:
            return
        root = load.document
        overlay = load.inject(
            div(
                attrs={"id": "ad-overlay"},
                width=root.width,
                height=root.height,
                z_index=z_index,
                opacity=0.0,
            )
        )
        load.add_listener(
            overlay,
            EventListener(event_type="click", handler=handler, source_url=script_url or "", once=once),
        )

    def inject_iframe(self, src: str, width: int, height: int, script_url: str | None) -> None:
        load = self._document_load
        if load is None:
            return
        from repro.dom.nodes import iframe as iframe_node

        load.inject(iframe_node(src, width, height))
        # The browser loads (newly injected) frames after scripts finish.
        self._browser._load_iframes(self._tab, self._depth + 1)

    def open_tab(self, url: str, popunder: bool, script_url: str | None) -> None:
        browser = self._browser
        try:
            target = parse_url(url)
        except UrlError:
            return
        new = browser.new_tab(opener=self._tab)
        browser.log.add(
            TabOpenEntry,
            (self.now(), new.tab_id, self._tab.tab_id, url, script_url, popunder),
        )
        browser._load(
            new,
            target,
            cause="window-open",
            source_url=script_url,
            referrer=self._tab.current_url,
            depth=self._depth + 1,
        )

    def navigate(self, url: str, mechanism: RedirectKind, script_url: str | None) -> None:
        tab = self._tab
        try:
            target = parse_url(url) if "://" in url else (tab.current_url.join(url) if tab.current_url else None)
        except UrlError:
            return
        if target is None:
            return
        if mechanism in (RedirectKind.JS_PUSH_STATE, RedirectKind.JS_REPLACE_STATE):
            # History rewrites change the visible URL without a load.
            self._browser.log.add(
                NavigationEntry,
                (
                    self.now(),
                    tab.tab_id,
                    str(target),
                    str(mechanism.value),
                    script_url,
                    str(tab.current_url) if tab.current_url else None,
                ),
            )
            tab.current_url = target
            return
        self._browser._load(
            tab,
            target,
            cause=str(mechanism.value),
            source_url=script_url,
            referrer=tab.current_url,
            depth=self._depth + 1,
        )

    def schedule_timeout(self, delay_ms: float, ops: Ops, script_url: str | None) -> None:
        self._tab.timers.append((delay_ms, ops, script_url))

    def webdriver_visible(self) -> bool:
        return self._browser.webdriver_visible

    def show_dialog(self, kind: str, message: str, repeat: int, script_url: str | None) -> None:
        browser = self._browser
        for _ in range(max(1, repeat)):
            browser.log.add(
                DialogEntry,
                (
                    self.now(),
                    self._tab.tab_id,
                    kind,
                    message,
                    str(self._tab.current_url) if self._tab.current_url else "",
                    browser.bypass_locking,
                ),
            )
        if not browser.bypass_locking:
            self._tab.locked = True

    def register_unload_nag(self, message: str, script_url: str | None) -> None:
        self._tab.unload_nag = message

    def request_notification_permission(
        self, prompt_text: str, push_endpoint: str | None, script_url: str | None
    ) -> None:
        self._browser.log.add(
            NotificationPromptEntry,
            (
                self.now(),
                self._tab.tab_id,
                str(self._tab.current_url) if self._tab.current_url else "",
                prompt_text,
                push_endpoint,
                self._browser.grant_notifications,
            ),
        )

    def trigger_download(self, url: str, script_url: str | None) -> None:
        browser = self._browser
        tab = self._tab
        try:
            target = parse_url(url) if "://" in url else (tab.current_url.join(url) if tab.current_url else None)
        except UrlError:
            return
        if target is None:
            return
        request = HttpRequest(
            url=target,
            vantage=browser.vantage,
            user_agent=browser.profile.ua_string,
            referrer=tab.current_url,
        )
        try:
            result = browser.internet.fetch(request)
        except (RedirectLoopError, TransientError):
            return
        if result.response.is_download:
            browser._record_download(tab, result.final_url, result.response.body, script_url)

    def send_beacon(self, url: str, script_url: str | None) -> None:
        browser = self._browser
        try:
            target = parse_url(url)
        except UrlError:
            return
        request = HttpRequest(
            url=target,
            vantage=browser.vantage,
            user_agent=browser.profile.ua_string,
            referrer=self._tab.current_url,
        )
        try:
            browser.internet.fetch(request)
        except (RedirectLoopError, TransientError):
            return
        browser.log.add(
            BeaconEntry,
            (
                self.now(),
                self._tab.tab_id,
                url,
                str(self._tab.current_url) if self._tab.current_url else "",
                script_url,
            ),
        )

    # -- helpers ---------------------------------------------------------

    def _resolve(self, selector: str, load: PageLoad) -> list[Element]:
        if selector == "document":
            return [load.document]
        if selector == "img:all":
            return load.find_all("img")
        if selector == "iframe:all":
            return list(load.iframes())
        if selector.startswith("#"):
            found = load.find_by_id(selector[1:])
            return [found] if found is not None else []
        return []
