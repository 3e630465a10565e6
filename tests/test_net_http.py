"""Tests for the HTTP model: redirects, referrer policy, downloads."""

import pytest

from repro.net.http import (
    HttpResponse,
    RedirectKind,
    ReferrerPolicy,
    download_response,
    html_response,
    not_found,
    redirect,
    sent_referrer,
    server_error,
)
from repro.urlkit.url import parse_url


class TestRedirectKind:
    @pytest.mark.parametrize(
        "kind", [RedirectKind.HTTP_301, RedirectKind.HTTP_302, RedirectKind.HTTP_303,
                 RedirectKind.HTTP_307, RedirectKind.HTTP_308]
    )
    def test_http_kinds(self, kind):
        assert kind.is_http

    @pytest.mark.parametrize(
        "kind", [RedirectKind.META_REFRESH, RedirectKind.JS_LOCATION,
                 RedirectKind.JS_PUSH_STATE, RedirectKind.WINDOW_OPEN]
    )
    def test_browser_kinds(self, kind):
        assert not kind.is_http


class TestResponses:
    def test_redirect_response(self):
        response = redirect("http://b.com/x")
        assert response.is_redirect
        assert response.status == 302
        assert str(response.location) == "http://b.com/x"

    def test_redirect_custom_kind(self):
        assert redirect("http://b.com/", RedirectKind.HTTP_301).status == 301

    def test_redirect_rejects_non_http_kind(self):
        with pytest.raises(ValueError):
            redirect("http://b.com/", RedirectKind.META_REFRESH)

    def test_html_response(self):
        response = html_response({"page": True})
        assert response.ok
        assert not response.is_redirect
        assert not response.is_download

    def test_download_response(self):
        response = download_response(object(), "setup.exe")
        assert response.is_download
        assert "setup.exe" in response.headers["Content-Disposition"]

    def test_not_found(self):
        assert not_found().status == 404
        assert not not_found().ok

    def test_server_error(self):
        assert server_error().status == 500

    def test_300_without_location_is_not_redirect(self):
        assert not HttpResponse(status=302).is_redirect


class TestReferrerPolicy:
    def test_default_keeps_referrer(self):
        sent = sent_referrer(parse_url("http://pub.com/page"), ReferrerPolicy.DEFAULT)
        assert str(sent) == "http://pub.com/page"

    def test_no_referrer_strips(self):
        assert sent_referrer(parse_url("http://pub.com/page"), ReferrerPolicy.NO_REFERRER) is None

    def test_origin_only(self):
        sent = sent_referrer(
            parse_url("http://pub.com/secret/page?token=1"), ReferrerPolicy.ORIGIN
        )
        assert str(sent) == "http://pub.com/"

    def test_none_referrer_stays_none(self):
        assert sent_referrer(None, ReferrerPolicy.UNSAFE_URL) is None
