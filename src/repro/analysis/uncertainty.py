"""Uncertainty quantification for measured rates.

Table 3's per-network SE rates are binomial estimates (SE pages out of
landing pages); at sub-paper crawl sizes the counts are small, so any
conclusion of the form "network A serves more SE ads than network B"
needs an interval, not a point estimate.  This module provides Wilson
score intervals and annotates Table 3 with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from repro.core.reports import Table3Row


@dataclass(frozen=True)
class RateInterval:
    """A binomial point estimate with a Wilson score interval."""

    successes: int
    trials: int
    point: float
    low: float
    high: float
    confidence: float


def z_value(confidence: float) -> float:
    """Two-sided standard-normal critical value for ``confidence``.

    >>> round(z_value(0.95), 4)
    1.96
    """
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> RateInterval:
    """Wilson score interval for a binomial proportion.

    >>> interval = wilson_interval(8, 10)
    >>> 0.4 < interval.low < interval.point < interval.high <= 1.0
    True
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return RateInterval(0, 0, 0.0, 0.0, 1.0, confidence)
    z = z_value(confidence)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)
    )
    # Exact boundary cases (0 or all successes) must pin the bound: the
    # algebra otherwise leaves ~1e-15 numerical residue.
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return RateInterval(
        successes=successes,
        trials=trials,
        point=p_hat,
        low=low,
        high=high,
        confidence=confidence,
    )


@dataclass(frozen=True)
class Table3RowWithCI:
    """A Table 3 row annotated with the SE-rate confidence interval."""

    network: str
    landing_pages: int
    se_attack_pages: int
    se_pct: float
    se_pct_low: float
    se_pct_high: float


def table3_with_intervals(rows: list[Table3Row]) -> list[Table3RowWithCI]:
    """Annotate Table 3 rows with 95% Wilson intervals on the SE rate."""
    annotated = []
    for row in rows:
        interval = wilson_interval(row.se_attack_pages, row.landing_pages)
        annotated.append(
            Table3RowWithCI(
                network=row.network,
                landing_pages=row.landing_pages,
                se_attack_pages=row.se_attack_pages,
                se_pct=row.se_pct,
                se_pct_low=100.0 * interval.low,
                se_pct_high=100.0 * interval.high,
            )
        )
    return annotated
