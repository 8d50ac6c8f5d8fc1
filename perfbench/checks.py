"""Output parsing and statistical checks for the benchmark workloads."""
from __future__ import annotations

import math

import numpy as np


def parse_report(text: str) -> dict[str, str]:
    """``key<TAB>value`` report lines as a dict (other lines are skipped)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            out[key] = value
    return out


def poisson_interval(mu: float, alpha: float) -> tuple[int, int]:
    """Exact two-sided Poisson acceptance interval ``[lo, hi]`` for mean ``mu``.

    ``lo`` and ``hi`` are the ``alpha/2`` and ``1 - alpha/2`` quantiles, so
    a Poisson count falls outside with probability at most ``alpha``.  The
    pmf is summed over mu +- (12 sd + 30), outside of which the mass is
    negligible against any ``alpha`` above 1e-30.
    """
    if mu <= 0:
        return 0, 0
    spread = 12.0 * math.sqrt(mu) + 30.0
    k0 = max(0, int(mu - spread))
    k = np.arange(k0, int(mu + spread) + 1)
    lgam = np.array([math.lgamma(x + 1.0) for x in range(k0, int(k[-1]) + 1)])
    pmf = np.exp(k * math.log(mu) - mu - lgam)
    cdf = np.cumsum(pmf)
    at_least = np.cumsum(pmf[::-1])[::-1]          # P(X >= k)
    lo = int(k[np.searchsorted(cdf, alpha / 2.0)])
    hi = int(k[np.argmax(at_least <= alpha / 2.0)]) - 1
    return lo, hi
