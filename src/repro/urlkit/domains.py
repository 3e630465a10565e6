"""Domain-name generators for the simulated ecosystem.

Two generation styles appear in the paper's observations:

* **DGA-style throwaway domains** used by SEACMA campaigns for attack pages
  (``wduygininqbu.com``, ``live6nmld10.club``, ``99cret1040.club``), rotated
  every few hours to evade blacklists, and

* **word-salad domains** used by ad networks to host JS snippets and by
  upstream milkable TDS hosts (``findglo210.info``, ``nsvf17p9.com``).
"""

from __future__ import annotations

import math
import random

from repro.rng import rng_for

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiouy"
_WORDS = (
    "find", "glo", "rel", "sta", "cret", "live", "nml", "ad", "serve",
    "click", "pop", "track", "flow", "traf", "gate", "way", "media",
    "cdn", "stat", "push", "feed", "link", "load", "zone", "spot",
    "win", "best", "top", "go", "run", "fast", "hot", "max", "pro",
)
_TLDS_ATTACK = ("club", "info", "xyz", "online", "site", "icu", "top", "buzz")
_TLDS_CODE = ("com", "net", "info", "biz", "org")


class DomainGenerator:
    """Deterministic generator of synthetic domain names.

    Each generator owns a private RNG derived from ``(seed, label)`` and
    guarantees it never emits the same domain twice.
    """

    def __init__(self, seed: int, label: str) -> None:
        self._rng: random.Random = rng_for(seed, "domains", label)
        self._seen: set[str] = set()

    def dga(self, tld: str | None = None) -> str:
        """Generate a random-consonant DGA-style domain.

        >>> gen = DomainGenerator(1, "demo")
        >>> name = gen.dga()
        >>> name.count(".")
        1
        """
        while True:
            length = self._rng.randint(8, 14)
            letters = []
            for index in range(length):
                pool = _VOWELS if index % 3 == 2 and self._rng.random() < 0.7 else _CONSONANTS
                letters.append(self._rng.choice(pool))
            if self._rng.random() < 0.4:
                letters.append(str(self._rng.randint(0, 99)))
            chosen_tld = tld or self._rng.choice(_TLDS_ATTACK)
            domain = f"{''.join(letters)}.{chosen_tld}"
            if domain not in self._seen:
                self._seen.add(domain)
                return domain

    def word_salad(self, tld: str | None = None) -> str:
        """Generate a pronounceable word-mashup domain (TDS / ad-code style).

        A numeric suffix is always included (``findglo210``-style); besides
        matching the paper's observed names, it keeps the name space large
        enough that independent generators effectively never collide.
        """
        while True:
            parts = [self._rng.choice(_WORDS) for _ in range(2)]
            parts.append(str(self._rng.randint(1, 9999)))
            chosen_tld = tld or self._rng.choice(_TLDS_CODE)
            domain = f"{''.join(parts)}.{chosen_tld}"
            if domain not in self._seen:
                self._seen.add(domain)
                return domain


class ThrowawayDomainPool:
    """A rotating pool of short-lived attack domains for one campaign.

    The paper observes SE attack domains lasting "hours to a few days" and
    being replaced as soon as they get blacklisted.  The pool exposes the
    *active* domain for a given virtual time (:meth:`active_window`);
    domain lifetime is sampled per domain from ``[min_lifetime,
    max_lifetime]``.
    """

    def __init__(
        self,
        seed: int,
        label: str,
        *,
        min_lifetime: float = 2 * 3600.0,
        max_lifetime: float = 2 * 86400.0,
        tld: str | None = None,
    ) -> None:
        if min_lifetime <= 0 or max_lifetime < min_lifetime:
            raise ValueError("invalid lifetime bounds")
        self._generator = DomainGenerator(seed, f"pool/{label}")
        self._rng = rng_for(seed, "pool-lifetimes", label)
        self._min = min_lifetime
        self._max = max_lifetime
        self._tld = tld
        # Rotation history: list of (activation_time, domain); activation
        # times strictly increase.
        self._history: list[tuple[float, str]] = []
        self._next_rotation = 0.0

    def active_window(self, now: float) -> tuple[str, float, float]:
        """The domain active at ``now`` and the window ``[start, end)`` of
        times at which this pool gives the same answer.

        Advances the rotation schedule as needed.  The schedule depends
        only on the pool's own generators, never on when it is asked, so
        a query behind the newest activation (a rewound clock) answers
        from history with the domain that was active then.  The first
        domain also answers for times before it activated, so its window
        opens at ``-inf``.
        """
        history = self._history
        if history and now < history[-1][0]:
            # Historical query: the last activation at or before ``now``.
            index = len(history) - 1
            while index > 0 and history[index][0] > now:
                index -= 1
        else:
            while not history or now >= self._next_rotation:
                activation = self._next_rotation if history else 0.0
                history.append((activation, self._generator.dga(tld=self._tld)))
                lifetime = self._rng.uniform(self._min, self._max)
                self._next_rotation = activation + lifetime
            index = len(history) - 1
        start = history[index][0] if index > 0 else -math.inf
        end = history[index + 1][0] if index + 1 < len(history) else self._next_rotation
        return history[index][1], start, end

    @property
    def next_rotation(self) -> float:
        """When the current active domain expires (virtual time)."""
        return self._next_rotation

    @property
    def domain_count(self) -> int:
        """How many domains the pool has activated so far (O(1))."""
        return len(self._history)

    def domains_since(self, index: int) -> list[str]:
        """Domains activated at or after position ``index``."""
        return [domain for _, domain in self._history[index:]]

    def all_domains(self) -> list[str]:
        """Every domain the pool has ever activated, in activation order."""
        return [domain for _, domain in self._history]

    def activation_time(self, domain: str) -> float:
        """Return when ``domain`` became active; raises if never activated."""
        for activation, name in self._history:
            if name == domain:
                return activation
        raise KeyError(domain)
