"""Tests for public-suffix handling and e2LD extraction."""

import pytest

from repro.errors import UrlError
from repro.urlkit.psl import e2ld, public_suffix


class TestPublicSuffix:
    def test_single_label_tld(self):
        assert public_suffix("example.com") == "com"

    def test_multi_label_suffix(self):
        assert public_suffix("shop.example.co.uk") == "co.uk"

    def test_unknown_tld_falls_back_to_last_label(self):
        assert public_suffix("weird.host.zzz") == "zzz"

    def test_dynamic_dns_suffix(self):
        assert public_suffix("me.blogspot.com") == "blogspot.com"


class TestE2ld:
    def test_simple(self):
        assert e2ld("example.com") == "example.com"

    def test_subdomain_stripped(self):
        assert e2ld("cdn.live6nmld10.club") == "live6nmld10.club"

    def test_deep_subdomains(self):
        assert e2ld("a.b.c.d.example.info") == "example.info"

    def test_multi_label_suffix(self):
        assert e2ld("video.streams.example.co.uk") == "example.co.uk"

    def test_blogspot_site_is_its_own_e2ld(self):
        # The whole point of the PSL: different blogspot sites must not
        # collapse into one registrable domain.
        assert e2ld("attacker.blogspot.com") == "attacker.blogspot.com"
        assert e2ld("victim.blogspot.com") != e2ld("attacker.blogspot.com")

    def test_bare_suffix_is_itself(self):
        assert e2ld("com") == "com"
        assert e2ld("co.uk") == "co.uk"

    def test_case_and_trailing_dot_normalized(self):
        assert e2ld("WWW.Example.COM.") == "example.com"

    @pytest.mark.parametrize("bad", ["", "a..b", "."])
    def test_malformed_rejected(self, bad):
        with pytest.raises(UrlError):
            e2ld(bad)

    def test_clustering_distinguishes_campaign_domains(self):
        # Attack domains from the paper's example all have distinct e2LDs.
        hosts = ["live6nmld10.club", "relsta60.club", "99cret1040.club"]
        assert len({e2ld(host) for host in hosts}) == 3

    def test_memo_is_bounded_and_keeps_rejecting(self):
        # A 93k-publisher run cannot grow the memo without limit, and a
        # bad host raises every time (errors are never memoized).
        assert e2ld.cache_info().maxsize == 16384
        assert e2ld("a.b.example.co.uk") == e2ld("a.b.example.co.uk") == "example.co.uk"
        for _ in range(2):
            with pytest.raises(UrlError):
                e2ld("a..b")
