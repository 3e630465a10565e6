"""Snippet obfuscation.

§3.1: "most of these ad networks heavily obfuscate their code and
frequently change the domain names from which the JS code is fetched ...
however, it was possible to identify a number of invariant features, such
as a specific URL path name, URL structure, or JS variable names that are
reused across different versions."

The obfuscator produces JS-looking text whose identifiers and literals
churn per publisher, while an *invariant token* (variable name or URL
fragment chosen by the ad network) survives every variant — giving the
pipeline something real to reverse and attribute on.
"""

from __future__ import annotations

import random
import string

_HEX = string.digits + "abcdef"


def random_identifier(rng: random.Random, length: int = 8) -> str:
    """A plausible minified-JS identifier (``_0x`` + hex).

    Hot path: snippets are re-obfuscated on every publisher-page
    materialization, so the per-character ``rng.choice`` wrappers are
    inlined.  The draws replicate ``rng.choice(_HEX)`` bit for bit —
    CPython's ``_randbelow(16)`` takes 5-bit draws and rejects values
    >= 16 — so pages derived before and after this change are identical.
    """
    getrandbits = rng.getrandbits
    chars = []
    for _ in range(length):
        value = getrandbits(5)
        while value >= 16:
            value = getrandbits(5)
        chars.append(_HEX[value])
    return "_0x" + "".join(chars)


def obfuscate(invariant_token: str, code_domain: str, rng: random.Random) -> str:
    """Render an obfuscated ad snippet body.

    The output varies per call (identifiers, packing constants, string
    chunks) but always embeds ``invariant_token`` verbatim and references
    ``code_domain`` — mirroring how real snippets gave themselves away.
    """
    var_a = random_identifier(rng)
    var_b = random_identifier(rng)
    var_c = random_identifier(rng)
    key = rng.randint(0x10, 0xFF)
    chunks = _chunked_literal(code_domain, rng)
    return (
        f"(function(){{var {var_a}={key};"
        f"var {var_b}=[{chunks}].join('');"
        f"var {invariant_token}=document.createElement('script');"
        f"{invariant_token}.src='//'+{var_b}+'/{invariant_token}.js';"
        f"var {var_c}=document.getElementsByTagName('script')[0];"
        f"{var_c}.parentNode.insertBefore({invariant_token},{var_c});}})();"
    )


def _chunked_literal(text: str, rng: random.Random) -> str:
    """Split ``text`` into randomly sized quoted chunks.

    ``rng.randint(1, 4)`` is inlined the same way as the draws in
    :func:`random_identifier`: ``_randbelow(4)`` is a 3-bit draw
    rejecting values >= 4, then shifted into ``1..4``.
    """
    getrandbits = rng.getrandbits
    pieces = []
    index = 0
    while index < len(text):
        step = getrandbits(3)
        while step >= 4:
            step = getrandbits(3)
        step += 1
        pieces.append(f"'{text[index:index + step]}'")
        index += step
    return ",".join(pieces)
