"""From raw counts to the key rate.

Pipeline: decoy-state bounds on the single-photon yield and phase error,
Z-basis sifting statistics, odd-parity pairing of the sifted bits, and
(in finite mode) Chernoff-bound corrections for statistical fluctuation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .counts import MATCHED_SLICE_DIFFS, N_SLICES, CountsTable
from .presets import ExperimentConfig
from .ratecore import KeyRateInputs, PartySettings, SecuritySettings, key_rate


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
    if not 0.0 <= observed < math.inf:  # NaN or inf never converges
        raise ValueError("observed count must be nonnegative and finite")
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
    ``clamped`` flags a bound that was clipped into its range or that
    had no windows to bound from.
    ``ledger``: each finite-mode bound's ``(name, direction, eps share)``.
    """

    y1a_lower: float
    y1b_lower: float
    n1: float
    n1a: float
    n1b: float
    e1_upper: float
    clamped: bool
    ledger: tuple[tuple[str, str, float], ...]


def _estimate(sec: SecuritySettings, *counts: tuple[str, str, float]):
    """Each ``(name, direction, count)`` as it enters a bound, and a ledger.

    Finite mode takes each count's ``"lower"`` or ``"upper"`` Chernoff
    bound (Zhang et al., PRA 95, 012333 (2017)) at an even share of
    ``eps_est``, and ledgers each as ``(name, direction, share)``.
    """
    if sec.mode != "finite":
        return [count for _, _, count in counts], ()
    share = sec.eps_est / len(counts)
    bound = {"lower": chernoff_lower, "upper": chernoff_upper}
    return ([bound[way](count, share) for _, way, count in counts],
            tuple((name, way, share) for name, way, _ in counts))


def _y1_lower(table: CountsTable, cats: tuple[str, str, str],
              party: PartySettings) -> tuple[float, bool]:
    """One side's single-photon yield lower bound and whether it is clamped.

    ``cats`` are the side's vacuum, ``mu1`` and ``mu2`` decoy categories.
    A yield is a probability, so the bound is clipped to [0, 1]; a side
    with a category that has no windows bounds nothing and gets 0.
    """
    c0, c1, c2 = cats
    if not (table.windows[c0] and table.windows[c1] and table.windows[c2]):
        return 0.0, True
    mu1, mu2 = party.mu1, party.mu2
    num = (mu2 * mu2 * math.exp(mu1) * table.yield_of(c1)
           - mu1 * mu1 * math.exp(mu2) * table.yield_of(c2)
           - (mu2 * mu2 - mu1 * mu1) * table.yield_of(c0))
    y1 = num / (mu1 * mu2 * (mu2 - mu1))
    if 0.0 <= y1 <= 1.0:
        return y1, False
    return min(max(y1, 0.0), 1.0), True


def decoy_bounds(table: CountsTable, pa: PartySettings, pb: PartySettings,
                 sec: SecuritySettings) -> DecoyBounds:
    """Decoy-state analysis of a counts table.

    Alice's single-photon yield is estimated from windows where she sent
    a decoy state and Bob's signal window stayed dark (categories
    ``XZ*0``), and symmetrically for Bob (``ZX0*``); a side with an empty
    decoy category bounds nothing, and each bound lies in [0, 1].  The
    phase-error bound uses the phase-matched same-decoy windows with the
    vacuum (dark-count) contribution subtracted; with no ``XX11`` windows
    it bounds nothing, and ``e1_upper`` is 0.5.  ``n1a``, ``n1b`` and any
    bounded ``x11_errors`` enter through :func:`_estimate`, whose ledger
    on the result says what share of ``eps_est`` each spends in finite
    mode.
    """
    y1a, clamped_a = _y1_lower(table, ("XZ00", "XZ10", "XZ20"), pa)
    y1b, clamped_b = _y1_lower(table, ("ZX00", "ZX01", "ZX02"), pb)
    clamped = clamped_a or clamped_b

    n = table.n_windows
    pz_both = pa.p_signal_window * pb.p_signal_window
    n1a = (n * pz_both * pa.epsilon_send * (1.0 - pb.epsilon_send)
           * pa.mu_z * math.exp(-pa.mu_z) * y1a)
    n1b = (n * pz_both * pb.epsilon_send * (1.0 - pa.epsilon_send)
           * pb.mu_z * math.exp(-pb.mu_z) * y1b)

    counts = [("n1a", "lower", n1a), ("n1b", "lower", n1b)]
    if table.windows["XX11"] > 0:
        counts.append(("x11_errors", "upper", table.x11_errors))
    (n1a, n1b, *x11_errors), ledger = _estimate(sec, *counts)

    mu_sum = pa.mu1 + pb.mu1
    y1_min = min(y1a, y1b)
    if x11_errors and y1_min > 0:
        # Phase-matched decoy-1 windows: total and error yields.  The slice
        # difference is uniform, so one XX11 window in N_SLICES / 2 matches.
        per_matched = N_SLICES / len(MATCHED_SLICE_DIFFS)
        t_matched = x11_errors[0] / (table.windows["XX11"] / per_matched)
        num = t_matched - 0.5 * math.exp(-mu_sum) * table.yield_of("XX00")
        if num < 0:
            num, clamped = 0.0, True
        e1 = num / (mu_sum * math.exp(-mu_sum) * y1_min)
        if e1 > 0.5:
            e1, clamped = 0.5, True
    else:
        e1, clamped = 0.5, True

    return DecoyBounds(y1a_lower=y1a, y1b_lower=y1b, n1=n1a + n1b, n1a=n1a,
                       n1b=n1b, e1_upper=e1, clamped=clamped, ledger=ledger)


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

    @property
    def pairs(self) -> int:
        """Bob's pairs: one bit of each group, as many as the smaller has."""
        return min(self.group0, self.group1)


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
    pairs = z.pairs
    if pairs == 0:
        return PairingResult(0, 0.0, 0.0, 0.0)
    survival = z.e0 * z.e1 + (1.0 - z.e0) * (1.0 - z.e1)
    surviving = pairs * survival
    e_prime = z.e0 * z.e1 / survival if survival > 0 else 0.0
    big = max(z.group0, z.group1)
    n1p = min(n1a * n1b / big, surviving)
    return PairingResult(pairs=pairs, surviving_pairs=surviving,
                         e_bit_prime=min(e_prime, 0.5), n1_prime=n1p)


@dataclass(frozen=True)
class ProcessedRun:
    """A counts table, its post-processing and its key rate (bit/signal)."""

    table: CountsTable
    decoy: DecoyBounds
    z_stats: ZBasisStats
    inputs: KeyRateInputs
    skr: float


def process(table: CountsTable, cfg: ExperimentConfig) -> ProcessedRun:
    """Run the full post-processing chain on a counts table of ``cfg``."""
    decoy = decoy_bounds(table, cfg.party_a, cfg.party_b, cfg.security)
    z = z_basis_stats(table)
    pairing = odd_parity_pairing(z, decoy.n1a, decoy.n1b)
    inputs = KeyRateInputs(
        n_windows=table.n_windows, n1_prime=pairing.n1_prime,
        e1_ph_prime=aopp_phase_error(decoy.e1_upper),
        nt_prime=pairing.surviving_pairs, e_bit_prime=pairing.e_bit_prime)
    return ProcessedRun(table=table, decoy=decoy, z_stats=z, inputs=inputs,
                        skr=key_rate(inputs, cfg.security))
