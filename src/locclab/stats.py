"""Confidence intervals for Monte-Carlo frequencies.

Every sampled frequency the package reports (sampled concentration
success, game rates, detection correctness) carries a 99% Wilson score
interval computed here, next to the sample count it rests on.
"""

from __future__ import annotations

import math

WILSON_Z_99 = 2.5758293035489004  # Phi^{-1}(0.995)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval (z = WILSON_Z_99) for ``successes`` out
    of ``trials`` >= 1 independent Bernoulli draws, clipped to [0, 1]."""
    z = WILSON_Z_99
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)
