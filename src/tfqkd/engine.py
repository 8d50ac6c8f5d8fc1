"""Session counts of the two-user interference link, sampled or expected.

Window outcomes are independent and identically distributed, so a
session's counts over the cells (category x slice difference x detector
outcome) are exactly multinomial.  :func:`cell_probabilities` gives the
cell probabilities as a ``(25, 16, 4)`` tensor: axis 0 is the category
in :data:`CATEGORIES` order, axis 1 the slice difference
``(sA - sB) mod 16``, axis 2 the outcome (none, only D0, only D1,
both).  The Gaussian residual phase is averaged out by Gauss-Hermite
quadrature.  :func:`simulate` draws one multinomial sample over the
flattened tensor, seeded with ``default_rng(seed)``, so a session of any
size costs the same; :func:`expected_counts` scales the tensor by the
window count.  Both project the cells onto a :class:`CountsTable` the
same way.

The cells are built in two parts.  :func:`click_outcomes` is the costly
one: a ``(16, 16, 4)`` tensor over (intensity pair, slice difference,
outcome) that depends only on the two parties' intensity tuples, the
link, the detectors and the noise model.  It keeps the last
:data:`_OUTCOMES_KEPT` tensors it served, read-only, keyed by those five
inputs, so every caller that evaluates the same click setting again in
one process (``optimize`` candidates that change only window or decoy
probabilities, repeated ``simulate`` or ``keyrate`` runs) skips the
click model.  Each of the 16 rows depends on one intensity of each user
alone, so a tensor it has not kept is patched where it can be: it copies
a recently kept tensor of the same link, detectors and noise and
recomputes only the rows whose intensities differ.  An ``optimize`` step
moves one intensity of user A and at most one of user B (the derived
weak decoy, or the mirrored value on a symmetric preset), which changes
at most 7 of the 16 rows.  :func:`cell_probabilities` gathers the tensor
into category order and applies the cheap category weights.  Two rules
hold for the kernel:

- Every array it returns is C-contiguous.  :func:`_project` sums over
  axes, and the same cells stored in another memory order are added in
  another order, which moves the last bits of the counts and of the
  reports built on them.
- Every temporary stays under glibc's 128 KiB mmap threshold, so no
  call maps and unmaps a fresh array.
"""
from __future__ import annotations

import math

import numpy as np

from .counts import CATEGORIES, MATCHED_SLICE_DIFFS, N_SLICES, CountsTable
from .optics import click_probability_arrays
from .presets import DetectorModel, ExperimentConfig, LinkConfig, NoiseModel
from .ratecore import PartySettings

#: Gauss-Hermite nodes and normalized weights of the residual-phase
#: average: ``hermegauss(17)`` with the weights divided by their sum,
#: written out as ``repr`` literals, which round-trip bit for bit.
#: Computing them at import would load ``numpy.polynomial`` and run its
#: LAPACK eigen-solve, which cost every process about 1.9 MB of RSS and
#: 4 ms of import time (2-core x86-64 host, Python 3.11, NumPy 2.4).
_GH_NODES = np.array([
    -6.889122439895333, -5.744460078659406, -4.778531589629984,
    -3.90006571719801, -3.0737971753281936, -2.281019440252989,
    -1.5098833077967408, -0.7518426007038962, 0.0,
    0.7518426007038962, 1.5098833077967408, 2.281019440252989,
    3.0737971753281936, 3.90006571719801, 4.778531589629984,
    5.744460078659406, 6.889122439895333])
_GH_WEIGHTS = np.array([
    2.5843149193748912e-11, 2.8080161179305654e-08, 4.012679447979844e-06,
    0.0001684914315513384, 0.002858946062284619, 0.023086657025710968,
    0.0974063711627211, 0.2267063084689769, 0.29953837012660545,
    0.2267063084689769, 0.0974063711627211, 0.023086657025710968,
    0.002858946062284619, 0.0001684914315513384, 4.012679447979844e-06,
    2.8080161179305654e-08, 2.5843149193748912e-11])
#: Offsets and weights of the average when there is no residual phase.
_NO_RESIDUAL = (np.zeros(1), np.ones(1))
#: Phase of each slice difference, a column against the quadrature nodes.
_SLICE_PHASES = (math.tau * np.arange(N_SLICES) / N_SLICES)[:, None]

#: Intensity index of user A and of user B in each of the 16 distinct
#: (A intensity, B intensity) pairs; pair ``k`` is ``(k // 4, k % 4)``.
_PAIR_IA, _PAIR_IB = np.divmod(np.arange(16), 4)
#: Pair index of each category, and the category index of the
#: phase-matched decoy windows XX11 and XX22.
_PAIR = np.array([4 * int(c[2]) + int(c[3]) for c in CATEGORIES])
_XX11, _XX22 = CATEGORIES.index("XX11"), CATEGORIES.index("XX22")
#: Index of each category's user A and user B window class in the
#: per-party table of :func:`_class_probs` (Z0, Z3, X0, X1, X2).
_CLASSES = ("Z0", "Z3", "X0", "X1", "X2")
_CA = np.array([_CLASSES.index(c[0] + c[2]) for c in CATEGORIES])
_CB = np.array([_CLASSES.index(c[1] + c[3]) for c in CATEGORIES])


def _class_probs(p: PartySettings) -> np.ndarray:
    """Probability that one user emits each window class Z0, Z3, X0, X1, X2.

    A signal (Z) window sends (index 3) with probability epsilon; a decoy
    (X) window picks one of the three decoy intensities.
    """
    pz, px = p.p_signal_window, 1.0 - p.p_signal_window
    return np.array([pz * (1.0 - p.epsilon_send), pz * p.epsilon_send,
                     px * p.p_mu0, px * p.p_mu1, px * p.p_mu2])


#: Click-outcome tensors (8 KB each) :func:`click_outcomes` keeps: enough
#: for the tensors an ``optimize`` search steps between, not for all of
#: them, so a search evicts the presets' tensors.
_OUTCOMES_KEPT = 16
#: Most recently used kept tensors of the same link, detectors and noise
#: that a miss compares with the new intensities.
_PATCH_CANDIDATES = 4
#: Intensity-pair rows that change when the user A intensities of bitmask
#: ``ma`` and the user B intensities of bitmask ``mb`` change (bit ``i``
#: is intensity ``i``): ``_CHANGED_ROWS[ma][mb]``.
_CHANGED_ROWS = [[np.flatnonzero(((ma >> _PAIR_IA) | (mb >> _PAIR_IB)) & 1)
                  for mb in range(16)] for ma in range(16)]


def _changed(old: tuple[float, ...], new: tuple[float, ...]) -> int:
    """Bitmask of the intensities in which ``new`` differs from ``old``.

    Written out for the four intensities: a generator over them took
    1.3 us a call, against 0.24 us (x86-64, Python 3.11), and a miss
    makes up to eight calls.
    """
    return ((old[0] != new[0]) | (old[1] != new[1]) << 1
            | (old[2] != new[2]) << 2 | (old[3] != new[3]) << 3)


class _KeptOutcomes:
    """The last :data:`_OUTCOMES_KEPT` click-outcome tensors, read-only.

    Keyed by the two intensity tuples, the link, the detectors and the
    noise model; least recently used first.  A miss copies the kept
    tensor of the same link, detectors and noise whose intensity pairs
    differ in the fewest rows, among the :data:`_PATCH_CANDIDATES` most
    recently used, and recomputes only those rows.  Each row is a
    function of its own pair of intensities alone, so the patched tensor
    equals a fresh build byte for byte.  ``hits``, ``misses`` and
    ``rows`` (rows computed) count since the last :meth:`clear`.  It
    takes no lock: the package looks tensors up from one thread.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.tensors: dict[tuple, np.ndarray] = {}
        self.hits = self.misses = self.rows = 0

    def get(self, mu_a: tuple[float, ...], mu_b: tuple[float, ...],
            link: LinkConfig, detectors: DetectorModel,
            noise: NoiseModel) -> np.ndarray:
        key = (mu_a, mu_b, link, detectors, noise)
        tensors = self.tensors
        outcomes = tensors.pop(key, None)
        if outcomes is not None:
            self.hits += 1
            tensors[key] = outcomes
            return outcomes
        self.misses += 1
        context = key[2:]
        base, rows, seen = None, _CHANGED_ROWS[15][15], 0
        for old, kept in reversed(tensors.items()):
            if old[2:] != context:
                continue
            changed = _CHANGED_ROWS[_changed(old[0], mu_a)][
                _changed(old[1], mu_b)]
            if changed.size < rows.size:
                base, rows = kept, changed
            seen += 1
            if seen == _PATCH_CANDIDATES:
                break
        self.rows += rows.size
        block = _outcome_rows(mu_a, mu_b, rows, link, detectors, noise)
        if base is None:
            outcomes = block
        else:
            outcomes = base.copy()
            outcomes[rows] = block
        outcomes.flags.writeable = False
        if len(tensors) == _OUTCOMES_KEPT:
            del tensors[next(iter(tensors))]
        tensors[key] = outcomes
        return outcomes


_KEPT = _KeptOutcomes()


def click_outcomes(cfg: ExperimentConfig) -> np.ndarray:
    """Outcome probabilities of each intensity pair and slice difference.

    Returns the read-only ``(16, 16, 4)`` tensor described in the module
    docstring; configs that differ only in window or decoy probabilities
    share it.
    """
    return _KEPT.get(cfg.party_a.intensities, cfg.party_b.intensities,
                     cfg.link, cfg.detectors, cfg.noise)


def _outcome_rows(mu_a: tuple[float, ...], mu_b: tuple[float, ...],
                  rows: np.ndarray, link: LinkConfig,
                  detectors: DetectorModel, noise: NoiseModel) -> np.ndarray:
    """Rows ``rows`` (intensity-pair indices) of the click-outcome tensor."""
    sigma = noise.residual_phase_std_rad
    if sigma > 0:
        offsets, weights = _GH_NODES * sigma, _GH_WEIGHTS
    else:
        offsets, weights = _NO_RESIDUAL
    p0, p1 = click_probability_arrays(
        np.asarray(mu_a)[_PAIR_IA[rows]][:, None, None],
        np.asarray(mu_b)[_PAIR_IB[rows]][:, None, None],
        _SLICE_PHASES + offsets, link, detectors, noise)
    q0, q1 = 1.0 - p0, 1.0 - p1
    # One product buffer serves all four outcomes, and each average
    # writes its column of the result directly.  A buffer holding all
    # four products, (16, 16, 4, 17), would be 139 KB: above the mmap
    # threshold.
    outcomes = np.empty((rows.size, N_SLICES, 4))
    columns = outcomes.reshape(-1, 4)
    product = np.empty_like(p0)
    flat = product.reshape(-1, weights.size)
    for k, (a, b) in enumerate(((q0, q1), (p0, q1), (q0, p1), (p0, p1))):
        np.multiply(a, b, out=product)
        np.matmul(flat, weights, out=columns[:, k])
    return outcomes


def cell_probabilities(cfg: ExperimentConfig) -> np.ndarray:
    """Probability of every (category, slice difference, outcome) cell.

    Returns a ``(25, 16, 4)`` array laid out as described in the module
    docstring.  The two slice indices are independent and uniform, so
    every slice difference has probability 1/16.  :func:`click_outcomes`
    is gathered into a fresh array in category order before the category
    weights apply.
    """
    cat_prob = _class_probs(cfg.party_a)[_CA] * _class_probs(cfg.party_b)[_CB]
    cells = click_outcomes(cfg)[_PAIR]
    cells *= (cat_prob / N_SLICES)[:, None, None]
    return cells


def _project(cells: np.ndarray, n_windows) -> CountsTable:
    """Collapse a cell array (counts or expectations) into a CountsTable.

    Heralds are the only-D0 and only-D1 cells.  Phase-matched decoy
    windows have one of the :data:`MATCHED_SLICE_DIFFS`, the first
    targeting D0 and the second D1; an error is a herald on the other
    detector.
    """
    d0, d1 = MATCHED_SLICE_DIFFS
    heralds = cells[:, :, 1] + cells[:, :, 2]
    return CountsTable(
        n_windows=n_windows,
        windows=dict(zip(CATEGORIES, cells.sum(axis=(1, 2)).tolist())),
        heralds=dict(zip(CATEGORIES, heralds.sum(axis=1).tolist())),
        x11_total=(heralds[_XX11, d0] + heralds[_XX11, d1]).item(),
        x11_errors=(cells[_XX11, d0, 2] + cells[_XX11, d1, 1]).item(),
        x22_total=(heralds[_XX22, d0] + heralds[_XX22, d1]).item(),
        x22_errors=(cells[_XX22, d0, 2] + cells[_XX22, d1, 1]).item())


def simulate(cfg: ExperimentConfig, n_windows: int,
             seed: int = 0) -> CountsTable:
    """Draw the counts of an ``n_windows``-window session.

    Results depend only on ``(cfg, n_windows, seed)``, not on ``cfg.run``.
    """
    p = cell_probabilities(cfg)
    counts = np.random.default_rng(seed).multinomial(n_windows,
                                                     p.ravel() / p.sum())
    return _project(counts.reshape(p.shape), int(n_windows))


def expected_counts(cfg: ExperimentConfig, n_windows: float) -> CountsTable:
    """Analytic expectation of every :class:`CountsTable` entry.

    Entries are expected values and stay floats.
    """
    cells = cell_probabilities(cfg)
    cells *= n_windows
    return _project(cells, n_windows)
