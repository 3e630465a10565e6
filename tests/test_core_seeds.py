"""Tests for invariant extraction and PublicWWW reversal (§3.1)."""

from repro.core.seeds import (
    InvariantPattern,
    derive_invariant_patterns,
    extract_invariant_token,
    merged_publisher_list,
    reverse_to_publishers,
)


class TestExtractInvariantToken:
    def test_shared_identifier_found(self):
        sources = [
            "var _0xaa11=1;var pcuid_var=document.createElement('script');",
            "var _0xbb22=2;var pcuid_var=document.createElement('script');",
        ]
        assert extract_invariant_token(sources) == "pcuid_var"

    def test_obfuscation_noise_ignored(self):
        sources = [
            "var _0xdeadbeef=1;var tok_q=2;",
            "var _0xdeadbeef=9;var tok_q=3;",  # same noise ident twice!
        ]
        # _0x-style identifiers are never taken as invariants.
        assert extract_invariant_token(sources) == "tok_q"

    def test_js_keywords_ignored(self):
        sources = ["function f(){document.createElement('x')}"] * 3
        assert extract_invariant_token(sources) is None

    def test_no_common_token(self):
        sources = ["var alpha_one=1;", "var beta_two=2;"]
        assert extract_invariant_token(sources) is None

    def test_empty_input(self):
        assert extract_invariant_token([]) is None


class TestDerivePatterns:
    def test_one_pattern_per_seed_network(self, tiny_world):
        patterns = derive_invariant_patterns(tiny_world.seed_networks, tiny_world.config.seed)
        assert len(patterns) == 11
        keys = {pattern.network_key for pattern in patterns}
        assert "popcash" in keys and "clicksor" in keys

    def test_patterns_recover_true_invariants(self, tiny_world):
        patterns = derive_invariant_patterns(tiny_world.seed_networks, tiny_world.config.seed)
        by_key = {pattern.network_key: pattern for pattern in patterns}
        for server in tiny_world.seed_networks:
            assert by_key[server.spec.key].token == server.spec.invariant_token

    def test_pattern_url_matching(self):
        pattern = InvariantPattern("popcash", "PopCash", "pcuid_var")
        assert pattern.matches_url("http://x.net/pcuid_var/go?pid=a")
        assert pattern.matches_url("http://x.net/pcuid_var.js")
        assert not pattern.matches_url("http://x.net/other/go")


class TestReversal:
    def test_reversal_finds_embedding_publishers(self, tiny_world):
        patterns = derive_invariant_patterns(tiny_world.seed_networks, tiny_world.config.seed)
        hits = reverse_to_publishers(patterns, tiny_world.publicwww)
        for pattern in patterns:
            expected = {
                site.domain
                for site in tiny_world.publishers
                if site.uses_network(pattern.network_key)
            }
            found = {hit.domain for hit in hits[pattern.network_key]}
            assert found == expected

    def test_reversal_misses_new_publishers(self, tiny_world):
        """Sites hosting only unseeded networks are invisible to seed
        reversal — that's why §4.4's expansion matters."""
        patterns = derive_invariant_patterns(tiny_world.seed_networks, tiny_world.config.seed)
        hits = reverse_to_publishers(patterns, tiny_world.publicwww)
        all_found = {hit.domain for found in hits.values() for hit in found}
        for site in tiny_world.new_publishers:
            assert site.domain not in all_found

    def test_merged_list_rank_ordered(self, tiny_world):
        patterns = derive_invariant_patterns(tiny_world.seed_networks, tiny_world.config.seed)
        hits = reverse_to_publishers(patterns, tiny_world.publicwww)
        merged = merged_publisher_list(hits)
        assert len(merged) == len(set(merged))
        ranks = [tiny_world.publicwww.rank_of(domain) for domain in merged]
        assert ranks == sorted(ranks)

    def test_hits_sorted_by_rank(self, tiny_world):
        hits = tiny_world.publicwww.search("pcuid_var")
        ranks = [hit.rank for hit in hits]
        assert ranks == sorted(ranks)
