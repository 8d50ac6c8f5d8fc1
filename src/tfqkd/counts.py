"""Count bookkeeping shared by the simulation engine and post-processing.

Windows are classified by a 4-character key ``<basisA><basisB><iA><iB>``
where the basis letters are Z (signal window) or X (decoy window) and
the intensity indices follow :attr:`PartySettings.intensities`:
0 = vacuum/weakest decoy, 1/2 = decoy intensities, 3 = signal intensity.
Z windows only emit indices {0, 3}; X windows only {0, 1, 2}.
"""
from __future__ import annotations

from dataclasses import dataclass, field

Z_INTENSITIES = (0, 3)
X_INTENSITIES = (0, 1, 2)


def category_names() -> list[str]:
    """All 25 window categories in a fixed order."""
    names = []
    for ba, ia_set in (("Z", Z_INTENSITIES), ("X", X_INTENSITIES)):
        for bb, ib_set in (("Z", Z_INTENSITIES), ("X", X_INTENSITIES)):
            for ia in ia_set:
                for ib in ib_set:
                    names.append(f"{ba}{bb}{ia}{ib}")
    return names


CATEGORIES = tuple(category_names())


@dataclass
class CountsTable:
    """Window and herald counts of one run.

    ``windows[cat]`` counts emitted windows of each category and
    ``heralds[cat]`` those where exactly one detector fired.  The
    ``x11_*``/``x22_*`` fields track phase-matched decoy windows (both
    users chose the same decoy intensity and their phase-slice indices
    differ by 0 or 8 out of 16): totals are heralded matched windows,
    errors those where the wrong detector fired for the slice pairing.
    """

    n_windows: int = 0
    windows: dict[str, int] = field(default_factory=lambda: {c: 0 for c in CATEGORIES})
    heralds: dict[str, int] = field(default_factory=lambda: {c: 0 for c in CATEGORIES})
    x11_total: int = 0
    x11_errors: int = 0
    x22_total: int = 0
    x22_errors: int = 0

    def yield_of(self, cat: str) -> float:
        """Heralds per emitted window of a category (0 if never emitted)."""
        w = self.windows[cat]
        return self.heralds[cat] / w if w else 0.0
