"""Tests for snippet obfuscation and invariant survival."""

import random

from repro.js.obfuscation import obfuscate, random_identifier


class TestObfuscate:
    def test_invariant_survives(self):
        rng = random.Random(0)
        source = obfuscate("pcuid_var", "serve1.popcash.net", rng)
        assert "pcuid_var" in source

    def test_variants_differ(self):
        rng = random.Random(0)
        a = obfuscate("tok_x", "domain.com", rng)
        b = obfuscate("tok_x", "domain.com", rng)
        assert a != b

    def test_code_domain_chunked_not_literal(self):
        # The serving domain is split into string chunks, evading naive
        # domain greps (this is the point of the obfuscation).
        rng = random.Random(1)
        source = obfuscate("tok_y", "longservingdomain.com", rng)
        assert "'longservingdomain.com'" not in source

    def test_looks_like_js(self):
        rng = random.Random(2)
        source = obfuscate("tok_z", "a.com", rng)
        assert source.startswith("(function(){")
        assert source.endswith("})();")
        assert "createElement('script')" in source

    def test_deterministic_given_rng(self):
        assert obfuscate("t", "d.com", random.Random(3)) == obfuscate(
            "t", "d.com", random.Random(3)
        )


class TestRandomIdentifier:
    def test_shape(self):
        ident = random_identifier(random.Random(0))
        assert ident.startswith("_0x")
        assert len(ident) == 11

    def test_custom_length(self):
        assert len(random_identifier(random.Random(0), length=4)) == 7
