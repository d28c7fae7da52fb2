"""Small statistical helpers shared by the estimation modules."""

from __future__ import annotations

import numpy as np

# two-sided 95% normal quantile, frozen so intervals are bit-stable
Z95 = 1.959963984540054


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at the fixed 95% quantile Z95.

    Chosen over the Wald interval because it stays inside [0, 1] and
    behaves sanely at hits = 0 or hits = trials, both of which occur
    routinely in tail experiments.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= hits <= trials:
        raise ValueError("hits must lie in [0, trials]")
    p = hits / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (Z95 / denom) * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    lo = 0.0 if hits == 0 else max(0.0, float(center - half))  # exact at the boundary,
    hi = 1.0 if hits == trials else min(1.0, float(center + half))  # not cancellation dust
    return (lo, hi)
