"""From raw counts to key-rate inputs.

Pipeline: decoy-state bounds on the single-photon yield and phase error,
Z-basis sifting statistics, odd-parity pairing of the sifted bits, and
(in finite mode) Chernoff-bound corrections for statistical fluctuation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .counts import CountsTable
from .ratecore import KeyRateInputs, PartySettings, SecuritySettings


def aopp_phase_error(e1_ph: float) -> float:
    """Phase-error amplification by odd-parity pairing: e -> 2e(1-e).

    A surviving pair carries the parity of two single-photon phases, so
    its phase flips when exactly one constituent flipped.
    """
    if not 0.0 <= e1_ph <= 0.5:
        raise ValueError("phase-error rate must lie in [0, 0.5]")
    return 2.0 * e1_ph * (1.0 - e1_ph)


def _chernoff_root(m: float, lam: float, x: float) -> float:
    """Newton root of g(x) = x ln(m/x) + x - m + lam from x, where g(x) < 0.

    g is concave with g' = ln(m/x), so each step moves toward the root
    without crossing it, and iteration stops once a step does not.
    """
    while True:
        r = math.log(m / x)
        # lam - m is exact for m near lam, where the lower root is tiny.
        nxt = x - (x * r + (x + (lam - m))) / r
        if (nxt - x) * (m - x) <= 0:
            return x
        x = nxt


def _chernoff_lambda(observed: float, eps: float) -> float:
    """Check a Chernoff bound's arguments and return ln(1/eps)."""
    if observed < 0:
        raise ValueError("observed count must be nonnegative")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return -math.log(eps)


def chernoff_upper(observed: float, eps: float) -> float:
    """Upper bound on the true mean given an observed count.

    Solves x ln(m/x) + x - m = ln(eps) for x > m; the bound fails with
    probability at most ``eps``.  For m = 0 the closed form ln(1/eps)
    applies.
    """
    lam = _chernoff_lambda(observed, eps)
    if observed == 0:
        return lam
    m = observed
    # Start right of the root: with x = m (1 + y), ln(1+y) >= 2y/(2+y)
    # gives -g(x)/m >= y^2/(2+y) - lam/m, which is positive at
    # y = 2 sqrt(lam/m) + 2 lam/m.
    return _chernoff_root(m, lam, m + 2.0 * (math.sqrt(lam * m) + lam) + 1.0)


def chernoff_lower(observed: float, eps: float) -> float:
    """Lower bound on the true mean given an observed count (>= 0).

    Solves the same equation for x < m; it has no such root, and the
    bound is 0, when m <= ln(1/eps).
    """
    lam = _chernoff_lambda(observed, eps)
    m = observed
    if m <= lam:
        return 0.0
    # Start left of the root: with x = m t, g(x)/m = lam/m - h(t), where
    # h(t) = 1 - t + t ln t >= 0 and h(t) - (1 - sqrt(t))^2 =
    # 2 sqrt(t) h(sqrt(t)) >= 0, so g < 0 at x = (sqrt(m) - sqrt(lam))^2.
    return _chernoff_root(m, lam, (math.sqrt(m) - math.sqrt(lam)) ** 2)


@dataclass(frozen=True)
class DecoyBounds:
    """Single-photon yield/error bounds from the decoy statistics.

    ``y1a_lower``/``y1b_lower``: per-side single-photon yield lower
    bounds; ``n1``: untagged-bit estimate in the signal windows and its
    per-side split; ``e1_upper``: single-photon phase-error upper bound.
    ``clamped`` flags a negative intermediate that was clipped to 0.
    """

    y1a_lower: float
    y1b_lower: float
    n1: float
    n1a: float
    n1b: float
    e1_upper: float
    clamped: bool


def _y1_lower(s0: float, s1: float, s2: float, mu1: float, mu2: float) -> float:
    num = (mu2 * mu2 * math.exp(mu1) * s1
           - mu1 * mu1 * math.exp(mu2) * s2
           - (mu2 * mu2 - mu1 * mu1) * s0)
    return num / (mu1 * mu2 * (mu2 - mu1))


def decoy_bounds(table: CountsTable, pa: PartySettings, pb: PartySettings,
                 sec: SecuritySettings) -> DecoyBounds:
    """Decoy-state analysis of a counts table.

    Alice's single-photon yield is estimated from windows where she sent
    a decoy state and Bob's signal window stayed dark (categories
    ``XZ*0``), and symmetrically for Bob (``ZX0*``).  The phase-error
    bound uses the phase-matched same-decoy windows with the vacuum
    (dark-count) contribution subtracted.  In finite mode the three
    statistical estimates each consume ``eps_est / 3`` of the budget.
    """
    clamped = False

    y1a = _y1_lower(table.yield_of("XZ00"), table.yield_of("XZ10"),
                    table.yield_of("XZ20"), pa.mu1, pa.mu2)
    y1b = _y1_lower(table.yield_of("ZX00"), table.yield_of("ZX01"),
                    table.yield_of("ZX02"), pb.mu1, pb.mu2)
    if y1a < 0:
        y1a, clamped = 0.0, True
    if y1b < 0:
        y1b, clamped = 0.0, True

    n = table.n_windows
    pz_both = pa.p_signal_window * pb.p_signal_window
    n1a = (n * pz_both * pa.epsilon_send * (1.0 - pb.epsilon_send)
           * pa.mu_z * math.exp(-pa.mu_z) * y1a)
    n1b = (n * pz_both * pb.epsilon_send * (1.0 - pa.epsilon_send)
           * pb.mu_z * math.exp(-pb.mu_z) * y1b)

    # Phase-matched decoy-1 windows: total and error yields.
    matched_windows = table.windows["XX11"] / 8.0  # 2 of 16 slice pairings
    t_matched = table.x11_errors / matched_windows if matched_windows > 0 else 0.0

    err_counts = float(table.x11_errors)
    if sec.mode == "finite":
        eps = sec.eps_est / 3.0
        n1a = chernoff_lower(n1a, eps)
        n1b = chernoff_lower(n1b, eps)
        if matched_windows > 0:
            t_matched = chernoff_upper(err_counts, eps) / matched_windows

    mu_sum = pa.mu1 + pb.mu1
    y1_min = min(y1a, y1b)
    if y1_min > 0 and mu_sum > 0:
        num = t_matched - 0.5 * math.exp(-mu_sum) * table.yield_of("XX00")
        if num < 0:
            num, clamped = 0.0, True
        e1 = num / (mu_sum * math.exp(-mu_sum) * y1_min)
        e1 = min(e1, 0.5)
    else:
        e1, clamped = 0.5, True

    return DecoyBounds(y1a_lower=y1a, y1b_lower=y1b, n1=n1a + n1b,
                       n1a=n1a, n1b=n1b, e1_upper=e1, clamped=clamped)


@dataclass(frozen=True)
class ZBasisStats:
    """Sifted signal-window statistics before pairing.

    Bob's raw bit is 0 when he sent and 1 when he did not; Alice's is
    the complement convention, so the correct outcome is exactly one
    user sending.  ``group0``/``group1`` are the sizes of Bob's 0- and
    1-bit groups; ``e0``/``e1`` the error fractions inside each group.
    """

    nt: int
    errors: int
    group0: int
    group1: int
    e0: float
    e1: float

    @property
    def qber(self) -> float:
        return self.errors / self.nt if self.nt else 0.0


def z_basis_stats(table: CountsTable) -> ZBasisStats:
    both = table.heralds["ZZ33"]      # both sent: error
    none = table.heralds["ZZ00"]      # neither sent: error (dark count)
    a_only = table.heralds["ZZ30"]
    b_only = table.heralds["ZZ03"]
    group0 = both + b_only            # Bob sent
    group1 = none + a_only            # Bob did not send
    return ZBasisStats(
        nt=group0 + group1,
        errors=both + none,
        group0=group0,
        group1=group1,
        e0=both / group0 if group0 else 0.0,
        e1=none / group1 if group1 else 0.0,
    )


@dataclass(frozen=True)
class PairingResult:
    """Outcome of odd-parity pairing of the sifted Z bits.

    Bob pairs each 0-bit with a 1-bit; a pair survives when Alice's two
    bits have odd parity, and each surviving pair emits one bit.
    """

    pairs: float
    surviving_pairs: float
    e_bit_prime: float
    n1_prime: float


def odd_parity_pairing(z: ZBasisStats, n1a: float, n1b: float) -> PairingResult:
    """Expected pairing outcome from group-level sifting statistics.

    The survival probability of a random pair is e0*e1 + (1-e0)(1-e1)
    (both bits wrong, or both right, gives odd Alice parity under the
    complementary bit conventions), and a surviving pair is erroneous
    only when both inputs were wrong.  Untagged bits survive when one
    member of the pair is untagged and the partner bit is correct;
    counting over the smaller group gives n1a*n1b / max(group sizes).
    """
    pairs = min(z.group0, z.group1)
    if pairs == 0:
        return PairingResult(0, 0.0, 0.0, 0.0)
    survival = z.e0 * z.e1 + (1.0 - z.e0) * (1.0 - z.e1)
    surviving = pairs * survival
    e_prime = z.e0 * z.e1 / survival if survival > 0 else 0.0
    big = max(z.group0, z.group1)
    n1p = n1a * n1b / big if big else 0.0
    n1p = min(n1p, surviving)
    return PairingResult(pairs=pairs, surviving_pairs=surviving,
                         e_bit_prime=min(e_prime, 0.5), n1_prime=n1p)


@dataclass(frozen=True)
class ProcessedRun:
    """A counts table and its complete post-processing output."""

    table: CountsTable
    decoy: DecoyBounds
    z_stats: ZBasisStats
    pairing: PairingResult
    inputs: KeyRateInputs


def process(table: CountsTable, pa: PartySettings, pb: PartySettings,
            sec: SecuritySettings) -> ProcessedRun:
    """Run the full post-processing chain on a counts table.

    The pairing step amplifies the phase error of the untagged bits to
    2 e (1 - e) because a surviving pair carries the parity of two
    single-photon phases.
    """
    decoy = decoy_bounds(table, pa, pb, sec)
    z = z_basis_stats(table)
    pairing = odd_parity_pairing(z, decoy.n1a, decoy.n1b)
    inputs = KeyRateInputs(
        n_windows=table.n_windows,
        n1_prime=pairing.n1_prime,
        e1_ph_prime=aopp_phase_error(decoy.e1_upper),
        nt_prime=pairing.surviving_pairs,
        e_bit_prime=pairing.e_bit_prime,
    )
    return ProcessedRun(table=table, decoy=decoy, z_stats=z, pairing=pairing,
                        inputs=inputs)
