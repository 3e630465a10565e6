"""WebPulse-style website categorization (Table 2).

The paper uses Symantec's WebPulse (sitereview.bluecoat.com) to
categorize the publisher sites that hosted SEACMA ads.  We assign
categories at world-build time from the empirical Table 2 distribution,
so the categorization service is a deterministic oracle over that ground
truth.
"""

from __future__ import annotations

import random

from repro.rng import weighted_choice

#: Table 2: top-20 categories of SEACMA ad publisher sites, with the
#: remaining probability mass spread over a catch-all tail.
CATEGORY_WEIGHTS: dict[str, float] = {
    "Suspicious": 15.81,
    "Pornography": 13.52,
    "Web Hosting": 8.85,
    "Entertainment": 6.57,
    "Personal Sites": 6.46,
    "Malicious Sources/Malnets": 6.25,
    "Dynamic DNS Host": 4.60,
    "Technology/Internet": 4.02,
    "Piracy/Copyright Concerns": 3.91,
    "Games": 3.11,
    "TV/Video Streams": 2.73,
    "Phishing": 2.46,
    "Business/Economy": 1.80,
    "Adult/Mature Content": 1.72,
    "Sports/Recreation": 1.52,
    "Education": 1.49,
    "Social Networking": 1.08,
    "Placeholders": 1.05,
    "Health": 1.01,
    "Society/Daily Living": 0.98,
    # Tail categories (14.06% in the paper beyond the top 20).
    "News/Media": 4.0,
    "Shopping": 3.5,
    "Travel": 2.5,
    "Reference": 2.0,
    "Audio/Video Clips": 2.06,
}


def sample_category(rng: random.Random) -> str:
    """Sample a publisher category from the Table 2 distribution."""
    categories = list(CATEGORY_WEIGHTS)
    weights = [CATEGORY_WEIGHTS[name] for name in categories]
    return weighted_choice(rng, categories, weights)


class WebPulse:
    """Domain categorization oracle."""

    def __init__(self) -> None:
        self._categories: dict[str, str] = {}

    def learn(self, domain: str, category: str) -> None:
        """Record the ground-truth category of a domain."""
        self._categories[domain] = category

    def categorize(self, domain: str) -> str:
        """Return the category of ``domain`` (``"Uncategorized"`` if new)."""
        return self._categories.get(domain, "Uncategorized")
