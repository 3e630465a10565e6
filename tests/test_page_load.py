"""The load model: served pages are shared and immutable, and each load
owns only what it adds (listeners, injected nodes, frame documents)."""

from repro import build_world
from repro.browser import browser as browser_module
from repro.browser.browser import Browser
from repro.browser.useragent import CHROME_MACOS
from repro.clock import SimClock
from repro.core.farm import CrawlerFarm
from repro.dom import page as page_module
from repro.dom.nodes import div, iframe, img
from repro.dom.page import PageContent, PageFeatures, VisualSpec
from repro.dom.render import full_page_overlays
from repro.js.api import (
    AddListener,
    Alert,
    InjectIframe,
    InjectOverlay,
    OpenTab,
    Script,
    handler,
)
from repro.net.http import html_response
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FunctionServer

from tests.golden import micro_config

VP = VantagePoint("t", "73.5.5.5", IpClass.RESIDENTIAL)


def serve(net, host, page):
    net.register(host, FunctionServer(lambda request, context: html_response(page)))


def banner_page():
    return PageContent(
        title="banner",
        document=div(width=300, height=250),
        scripts=[
            Script(
                ops=(AddListener("document", "click", handler(OpenTab("http://land.club/b"))),),
                url="http://serve.adnet.com/render.js",
            )
        ],
        visual=VisualSpec("t/banner"),
    )


def armed_page():
    """A publisher page whose script listens, injects an overlay and a banner."""
    root = div(width=1280, height=800)
    root.append(img("content.jpg", 600, 400))
    script = Script(
        ops=(
            AddListener("img:all", "click", handler(OpenTab("http://land.club/i")), once=True),
            InjectOverlay(handler=handler(OpenTab("http://land.club/o")), once=True),
            InjectIframe(src="http://banner.adnet.com/ad"),
        ),
        url="http://code.adnet.com/tag.js",
    )
    return PageContent(title="pub", document=root, scripts=[script], visual=VisualSpec("t/pub"))


def make_net():
    net = Internet(SimClock())
    serve(net, "banner.adnet.com", banner_page())
    serve(net, "land.club", PageContent(title="land", document=div(width=800, height=600)))
    return net


class TestLoadsShareServedPage:
    def test_two_tabs_keep_separate_state(self):
        net = make_net()
        page = armed_page()
        serve(net, "pub.com", page)
        served_nodes = list(page.document.walk())
        browser = Browser(net, CHROME_MACOS, VP)
        first = browser.visit("http://pub.com/")
        second = browser.visit("http://pub.com/")
        assert first.page is second.page is page
        one, two = first.load, second.load

        image = page.find_all("img")[0]
        assert one.listeners[image][0] is not two.listeners[image][0]
        assert set(one.overlays()).isdisjoint(two.overlays())
        assert len(one.overlays()) == len(two.overlays()) == 1
        assert set(one.frames).isdisjoint(two.frames)
        assert len(one.frames) == len(two.frames) == 1
        (frame_one,) = one.frames.values()
        (frame_two,) = two.frames.values()
        assert frame_one is not frame_two
        assert frame_one.page is frame_two.page  # the banner is served once

        # A click spends the first tab's overlay listener only.
        assert browser.click(first, image).triggered_ad
        (overlay_one,) = one.overlays()
        (overlay_two,) = two.overlays()
        assert one.listeners[overlay_one][0].spent
        assert not two.listeners[overlay_two][0].spent

        # The served page is exactly what the server built.
        assert list(page.document.walk()) == served_nodes
        assert list(page.nodes) == served_nodes
        assert page.find_all("iframe") == []
        assert page.overlays() == ()

    def test_injected_iframe_ranks_after_equal_served_image(self):
        root = div(width=1280, height=800)
        served = root.append(img("same-size.jpg", 300, 250))
        script = Script(ops=(InjectIframe(src="http://banner.adnet.com/ad"),), url="http://t.com/a.js")
        page = PageContent(title="pub", document=root, scripts=[script], visual=VisualSpec("t/p"))
        net = make_net()
        serve(net, "pub.com", page)
        load = Browser(net, CHROME_MACOS, VP).visit("http://pub.com/").load
        (injected,) = load.injected
        assert injected.area == served.area
        assert load.candidates() == (served, injected)

    def test_ties_follow_document_order_not_construction_order(self):
        # ``late`` is built first (smaller node id) but sits second in the
        # document: document order decides the tie.
        late = img("late.jpg", 100, 100)
        root = div(width=1280, height=800)
        early = root.append(img("early.jpg", 100, 100))
        root.append(late)
        page = PageContent(title="p", document=root)
        assert late.node_id < early.node_id
        assert page.instantiate().candidates() == (early, late)


class TestOverlaysAreDistinct:
    def test_equal_valued_nodes_are_distinct(self):
        first = div(width=1280, height=800, opacity=0.0, z_index=5)
        second = div(width=1280, height=800, opacity=0.0, z_index=5)
        assert first != second
        assert len({first: 1, second: 2}) == 2
        root = div(width=1280, height=800)
        assert full_page_overlays(root, [first, second]) == [first, second]

    def test_two_injected_overlays_keep_own_listeners(self):
        overlay = InjectOverlay(handler=handler(OpenTab("http://land.club/o")), once=True, z_index=7)
        page = PageContent(
            title="pub",
            document=div(width=1280, height=800),
            scripts=[Script(ops=(overlay, overlay), url="http://code.adnet.com/ov.js")],
        )
        net = make_net()
        serve(net, "pub.com", page)
        load = Browser(net, CHROME_MACOS, VP).visit("http://pub.com/").load
        top, below = load.overlays()
        assert top is not below
        assert load.injected == [top, below]
        assert load.listeners[top] is not load.listeners[below]
        assert len(load.listeners[top]) == len(load.listeners[below]) == 1


class TestLandingFeatures:
    def test_extracted_once_per_served_page_and_host(self, monkeypatch):
        extracted = []
        real = PageFeatures.from_page.__func__

        def counting(cls, page, host):
            extracted.append((page, host))  # holds the page: ids stay unique
            return real(cls, page, host)

        monkeypatch.setattr(PageFeatures, "from_page", classmethod(counting))
        page = PageContent(title="t", document=div(width=10, height=10))
        assert page.features("a.com") is page.features("a.com")
        assert page.features("b.com") is not page.features("a.com")
        assert len(extracted) == 2

        extracted.clear()
        world = build_world(micro_config(7))
        dataset = CrawlerFarm(world).crawl([site.domain for site in world.publishers])
        keys = [(id(page), host) for page, host in extracted]
        assert extracted
        assert len(keys) == len(set(keys)) <= len(dataset.interactions)


class TestIframeList:
    """Frames load from one served iframe tuple per page plus the load's
    injected iframes, never from a rescan of the node tuple."""

    def framed_page(self):
        root = div(width=1280, height=800)
        served = root.append(iframe("http://banner.adnet.com/ad", 300, 250))
        script = Script(ops=(InjectIframe(src="http://land.club/frame"),), url="http://t.com/a.js")
        page = PageContent(title="pub", document=root, scripts=[script], visual=VisualSpec("t/p"))
        return page, served

    def test_injected_iframe_loads_after_served_one(self):
        page, served = self.framed_page()
        net = make_net()
        serve(net, "pub.com", page)
        load = Browser(net, CHROME_MACOS, VP).visit("http://pub.com/").load
        (injected,) = load.injected
        assert load.iframes() == (served, injected)
        assert list(load.frames) == [served, injected]
        assert page.iframes() == (served,)

    def test_page_loaded_twice_scans_its_nodes_once(self, monkeypatch):
        scans = []
        real = page_module._with_tags

        def counting(nodes, tags):
            scans.append(tags)
            return real(nodes, tags)

        monkeypatch.setattr(page_module, "_with_tags", counting)
        page, _ = self.framed_page()
        net = make_net()
        serve(net, "pub.com", page)
        browser = Browser(net, CHROME_MACOS, VP)
        loads = [browser.visit("http://pub.com/").load for _ in range(2)]
        assert [len(load.frames) for load in loads] == [2, 2]
        # The served iframe tuple is built on the first load and shared.
        assert scans == [("iframe",)]


class TestOneHostPerClick:
    def test_handlers_of_one_click_share_a_host(self, monkeypatch):
        hosts = []
        real_init = browser_module._TabHost.__init__

        def counting(self, *args, **kwargs):
            hosts.append(self)
            real_init(self, *args, **kwargs)

        root = div(width=1280, height=800)
        image = root.append(img("content.jpg", 600, 400))
        script = Script(
            ops=(
                AddListener("img:all", "click", handler(Alert("one"))),
                AddListener("document", "click", handler(Alert("two"))),
            ),
            url="http://code.adnet.com/tag.js",
        )
        page = PageContent(title="pub", document=root, scripts=[script], visual=VisualSpec("t/p"))
        net = make_net()
        serve(net, "pub.com", page)
        browser = Browser(net, CHROME_MACOS, VP)
        tab = browser.visit("http://pub.com/")
        monkeypatch.setattr(browser_module._TabHost, "__init__", counting)
        outcome = browser.click(tab, image)
        assert outcome.handlers_fired == 2
        assert outcome.dialogs == 2
        assert len(hosts) == 1

    def test_click_firing_nothing_builds_no_host(self, monkeypatch):
        hosts = []
        monkeypatch.setattr(
            browser_module._TabHost, "__init__", lambda self, *args, **kwargs: hosts.append(self)
        )
        root = div(width=1280, height=800)
        image = root.append(img("content.jpg", 600, 400))
        net = make_net()
        serve(net, "pub.com", PageContent(title="pub", document=root))
        browser = Browser(net, CHROME_MACOS, VP)
        outcome = browser.click(browser.visit("http://pub.com/"), image)
        assert outcome.handlers_fired == 0
        assert hosts == []
