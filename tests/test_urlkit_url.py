"""Tests for URL parsing and manipulation."""

import pytest

from repro.errors import UrlError
from repro.urlkit.url import Url, parse_url


class TestParseUrl:
    def test_basic(self):
        url = parse_url("http://example.com/path?x=1#frag")
        assert url.scheme == "http"
        assert url.host == "example.com"
        assert url.path == "/path"
        assert url.query == "x=1"
        assert url.fragment == "frag"

    def test_https(self):
        assert parse_url("https://a.b.c/").scheme == "https"

    def test_default_path(self):
        assert parse_url("http://example.com").path == "/"

    def test_port(self):
        url = parse_url("http://example.com:8080/x")
        assert url.port == 8080
        assert url.origin == "http://example.com:8080"

    def test_host_lowercased(self):
        assert parse_url("http://ExAmPlE.CoM/").host == "example.com"

    def test_roundtrip(self):
        raw = "https://findglo210.info/go?cid=42"
        assert str(parse_url(raw)) == raw

    def test_url_passthrough(self):
        url = parse_url("http://a.com/")
        assert parse_url(url) is url

    @pytest.mark.parametrize(
        "bad",
        [
            "ftp://example.com/",
            "not a url",
            "http//missing.colon/",
            "http://",
            "",
            "javascript:alert(1)",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(UrlError):
            parse_url(bad)

    def test_non_string_rejected(self):
        with pytest.raises(UrlError):
            parse_url(12345)  # type: ignore[arg-type]

    def test_invalid_host_rejected(self):
        with pytest.raises(UrlError):
            parse_url("http://bad_host_with_underscores/")


class TestUrl:
    def test_params(self):
        url = parse_url("http://a.com/p?x=1&y=two")
        assert url.params == {"x": "1", "y": "two"}

    def test_join_absolute_url(self):
        base = parse_url("http://a.com/x")
        assert str(base.join("http://b.com/y")) == "http://b.com/y"

    def test_join_absolute_path(self):
        base = parse_url("http://a.com/x?q=1")
        joined = base.join("/y?r=2")
        assert joined.host == "a.com"
        assert joined.path == "/y"
        assert joined.query == "r=2"

    def test_join_relative_rejected(self):
        with pytest.raises(UrlError):
            parse_url("http://a.com/x").join("y/z")

    def test_hashable(self):
        urls = {parse_url("http://a.com/"), parse_url("http://a.com/")}
        assert len(urls) == 1

    def test_frozen(self):
        url = parse_url("http://a.com/")
        with pytest.raises(AttributeError):
            url.host = "b.com"  # type: ignore[misc]

    def test_relative_path_rejected_in_constructor(self):
        with pytest.raises(UrlError):
            Url(scheme="http", host="a.com", path="relative")
