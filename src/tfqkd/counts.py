"""Count bookkeeping shared by the simulation engine and post-processing.

Windows are classified by a 4-character key ``<basisA><basisB><iA><iB>``
where the basis letters are Z (signal window) or X (decoy window) and
the intensity indices follow :attr:`PartySettings.intensities`:
0 = vacuum/weakest decoy, 1/2 = decoy intensities, 3 = signal intensity.
Z windows only emit indices {0, 3}; X windows only {0, 1, 2}.
"""
from __future__ import annotations

from dataclasses import dataclass, field

#: All 25 window categories in a fixed order: user A's basis, then user
#: B's, then A's intensity index, then B's.
CATEGORIES = (
    "ZZ00", "ZZ03", "ZZ30", "ZZ33",
    "ZX00", "ZX01", "ZX02", "ZX30", "ZX31", "ZX32",
    "XZ00", "XZ03", "XZ10", "XZ13", "XZ20", "XZ23",
    "XX00", "XX01", "XX02", "XX10", "XX11", "XX12", "XX20", "XX21", "XX22",
)

#: Number of discrete phase-slice values per window.
N_SLICES = 16
#: The phase-matched slice differences ``(sA - sB) mod N_SLICES``: equal
#: phases, where D0 is the right detector, and half a turn apart, where
#: D1 is.
MATCHED_SLICE_DIFFS = (0, N_SLICES // 2)


@dataclass(frozen=True)
class CountsTable:
    """Window and herald counts of one run.

    ``windows[cat]`` counts emitted windows of each category and
    ``heralds[cat]`` those where exactly one detector fired.  The
    ``x11_*``/``x22_*`` fields track phase-matched decoy windows (both
    users chose the same decoy intensity and their phase-slice indices
    differ by one of :data:`MATCHED_SLICE_DIFFS`): totals are heralded
    matched windows, errors those where the wrong detector fired for
    the slice pairing.
    A sampled session holds ints; an expectation holds floats.
    """

    n_windows: int | float = 0
    windows: dict[str, int | float] = field(
        default_factory=lambda: {c: 0 for c in CATEGORIES})
    heralds: dict[str, int | float] = field(
        default_factory=lambda: {c: 0 for c in CATEGORIES})
    x11_total: int | float = 0
    x11_errors: int | float = 0
    x22_total: int | float = 0
    x22_errors: int | float = 0

    def yield_of(self, cat: str) -> float:
        """Heralds per emitted window of a category (0 if never emitted)."""
        w = self.windows[cat]
        return self.heralds[cat] / w if w else 0.0
