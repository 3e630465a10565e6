"""Tests for DNS resolution and internet routing."""

import pytest

from repro.clock import SimClock
from repro.errors import DnsError, RedirectLoopError
from repro.net.dns import DnsRegistry
from repro.net.http import HttpRequest, html_response, not_found, redirect
from repro.net.ipspace import IpClass, VantagePoint
from repro.net.network import Internet
from repro.net.server import FunctionServer
from repro.urlkit.url import parse_url

VP = VantagePoint("test", "73.0.0.1", IpClass.RESIDENTIAL)


def request_for(url):
    return HttpRequest(url=parse_url(url), vantage=VP, user_agent="UA")


def page_server(marker):
    return FunctionServer(lambda request, context: html_response(marker))


class TestDnsRegistry:
    def test_static_resolution(self):
        dns = DnsRegistry()
        server = page_server("a")
        dns.register("a.com", server)
        assert dns.resolve("a.com", 0.0) is server

    def test_case_insensitive(self):
        dns = DnsRegistry()
        server = page_server("a")
        dns.register("A.COM", server)
        assert dns.resolve("a.com", 0.0) is server

    def test_duplicate_registration_rejected(self):
        dns = DnsRegistry()
        dns.register("a.com", page_server("a"))
        with pytest.raises(ValueError):
            dns.register("a.com", page_server("b"))

    def test_nxdomain(self):
        dns = DnsRegistry()
        with pytest.raises(DnsError):
            dns.resolve("nope.com", 0.0)

    def test_claimant_resolution(self):
        dns = DnsRegistry()
        claimant = FunctionServer(
            lambda request, context: html_response("c"),
            claims=lambda host, now: host == "dynamic.club",
        )
        dns.add_claimant(claimant)
        assert dns.resolve("dynamic.club", 0.0) is claimant
        with pytest.raises(DnsError):
            dns.resolve("other.club", 0.0)

    def test_static_wins_over_claimant(self):
        dns = DnsRegistry()
        static = page_server("static")
        dns.register("x.com", static)
        dns.add_claimant(
            FunctionServer(lambda r, c: html_response("dyn"), claims=lambda h, t: True)
        )
        assert dns.resolve("x.com", 0.0) is static

    def test_time_sensitive_claims(self):
        dns = DnsRegistry()
        claimant = FunctionServer(
            lambda request, context: html_response("c"),
            claims=lambda host, now: now < 100.0,
        )
        dns.add_claimant(claimant)
        assert dns.resolve("rotating.club", 50.0) is claimant
        with pytest.raises(DnsError):
            dns.resolve("rotating.club", 150.0)


class TestInternet:
    def make_internet(self):
        return Internet(SimClock())

    def test_simple_fetch(self):
        net = self.make_internet()
        net.register("a.com", page_server("hello"))
        result = net.fetch(request_for("http://a.com/"))
        assert result.response.ok
        assert result.response.body == "hello"
        assert [str(u) for u in result.chain] == ["http://a.com/"]

    def test_redirect_chain_followed_and_recorded(self):
        net = self.make_internet()
        net.register("a.com", FunctionServer(lambda r, c: redirect("http://b.com/x")))
        net.register("b.com", FunctionServer(lambda r, c: redirect("http://c.com/y")))
        net.register("c.com", page_server("final"))
        result = net.fetch(request_for("http://a.com/"))
        assert result.response.body == "final"
        assert [str(u) for u in result.chain] == [
            "http://a.com/",
            "http://b.com/x",
            "http://c.com/y",
        ]
        assert str(result.final_url) == "http://c.com/y"

    def test_redirect_sets_referrer(self):
        seen = {}

        def capture(request, context):
            seen["referrer"] = request.referrer
            return html_response("ok")

        net = self.make_internet()
        net.register("a.com", FunctionServer(lambda r, c: redirect("http://b.com/")))
        net.register("b.com", FunctionServer(capture))
        net.fetch(request_for("http://a.com/start"))
        assert str(seen["referrer"]) == "http://a.com/start"

    def test_dns_failure_reported_in_band(self):
        net = self.make_internet()
        result = net.fetch(request_for("http://ghost.club/"))
        assert result.dns_failure
        assert result.response.status == 502

    def test_final_url_on_empty_chain_raises_descriptive_error(self):
        from repro.errors import FetchError
        from repro.net.http import HttpResponse
        from repro.net.network import FetchResult

        result = FetchResult(response=HttpResponse(status=200, body=None), chain=[])
        with pytest.raises(FetchError, match="empty redirect chain"):
            result.final_url

    def test_dns_failure_mid_chain(self):
        net = self.make_internet()
        net.register("a.com", FunctionServer(lambda r, c: redirect("http://dead.club/")))
        result = net.fetch(request_for("http://a.com/"))
        assert result.dns_failure
        assert str(result.final_url) == "http://dead.club/"

    def test_redirect_loop_detected(self):
        net = self.make_internet()
        net.register("a.com", FunctionServer(lambda r, c: redirect("http://b.com/")))
        net.register("b.com", FunctionServer(lambda r, c: redirect("http://a.com/")))
        with pytest.raises(RedirectLoopError):
            net.fetch(request_for("http://a.com/"))

    def test_303_forces_get(self):
        from repro.net.http import RedirectKind

        methods = []

        def capture(request, context):
            methods.append(request.method)
            return html_response("ok")

        net = self.make_internet()
        net.register(
            "a.com",
            FunctionServer(lambda r, c: redirect("http://b.com/", RedirectKind.HTTP_303)),
        )
        net.register("b.com", FunctionServer(capture))
        request = HttpRequest(url=parse_url("http://a.com/"), vantage=VP, user_agent="UA", method="POST")
        net.fetch(request)
        assert methods == ["GET"]

    def test_307_preserves_method(self):
        from repro.net.http import RedirectKind

        methods = []

        def capture(request, context):
            methods.append(request.method)
            return html_response("ok")

        net = self.make_internet()
        net.register("a.com", FunctionServer(lambda r, c: redirect("http://b.com/", RedirectKind.HTTP_307)))
        net.register("b.com", FunctionServer(capture))
        request = HttpRequest(url=parse_url("http://a.com/"), vantage=VP, user_agent="UA", method="POST")
        net.fetch(request)
        assert methods == ["POST"]

    def test_fetch_count(self):
        net = self.make_internet()
        net.register("a.com", page_server("x"))
        net.fetch(request_for("http://a.com/"))
        net.fetch(request_for("http://a.com/"))
        assert net.fetch_count == 2

    def test_host_alive(self):
        net = self.make_internet()
        net.register("a.com", page_server("x"))
        assert net.host_alive("a.com")
        assert not net.host_alive("b.com")

    def test_context_carries_time(self):
        times = []

        def capture(request, context):
            times.append(context.now)
            return html_response("ok")

        clock = SimClock()
        net = Internet(clock)
        net.register("a.com", FunctionServer(capture))
        clock.advance(42.0)
        net.fetch(request_for("http://a.com/"))
        assert times == [42.0]
