"""Near-duplicate screenshot matching.

Used by the milking verifier (§3.5): a candidate upstream URL is declared
"milkable" only if the page it leads to renders a screenshot that closely
matches the campaign's known screenshots.
"""

from __future__ import annotations

from repro.imaging.dhash import DHASH_BITS
from repro.imaging.distance import hamming

# eps=0.1 over 128 bits; matching the clustering tolerance keeps the
# milking verifier consistent with campaign discovery.
THRESHOLD_BITS = int(0.1 * DHASH_BITS)


def matches_any(hash_value: int, known_hashes) -> bool:
    """Whether ``hash_value`` is within threshold of any known hash."""
    return any(hamming(hash_value, known) <= THRESHOLD_BITS for known in known_hashes)
