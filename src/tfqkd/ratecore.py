"""Pure math kernel: entropy, key-rate formula, PLOB bound, protocol validity.

All functions here are stateless and safe for concurrent use.
"""
import math
from dataclasses import dataclass

#: Effective clock rate for quantum-signal transmission (Hz).
DEFAULT_CLOCK_HZ = 5.0e8

_PROB_TOL = 1e-9

#: Largest intensity-balance deviation (:func:`check_sns_constraint`).
MAX_BALANCE_DEVIATION = 0.05


def binary_entropy(x: float) -> float:
    """Shannon binary entropy h(x) = -x log2 x - (1-x) log2 (1-x).

    Extended by continuity with h(0) = h(1) = 0.  Raises ValueError
    outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class PartySettings:
    """One user's source intensities and window/decoy probabilities.

    Intensities are mean photon numbers at the transmitter output.
    ``p_signal_window`` is the probability of declaring a signal (Z)
    window; ``epsilon_send`` is the in-signal-window send probability.
    A decoy window sends ``mu0`` with probability ``p_mu0``, ``mu1``
    with ``p_mu1``, and the strong decoy ``mu2`` with the rest,
    :attr:`p_mu2`.
    """

    mu_z: float
    mu2: float
    mu1: float
    mu0: float
    p_signal_window: float
    epsilon_send: float
    p_mu0: float
    p_mu1: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.mu0 < self.mu1 < self.mu2):
            raise ValueError("require 0 <= mu0 < mu1 < mu2")
        if self.mu_z <= 0.0:
            raise ValueError("mu_z must be positive")
        for name in ("p_signal_window", "epsilon_send", "p_mu0", "p_mu1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.p_mu0 + self.p_mu1 > 1.0 + _PROB_TOL:
            raise ValueError("decoy probabilities p_mu0 + p_mu1 exceed 1")

    @property
    def p_mu2(self) -> float:
        """Strong-decoy probability: what p_mu0 and p_mu1 leave of 1."""
        return max(0.0, 1.0 - self.p_mu1 - self.p_mu0)

    @property
    def intensities(self) -> tuple[float, float, float, float]:
        """Intensity table indexed by 0..3 = (mu0, mu1, mu2, mu_z)."""
        return (self.mu0, self.mu1, self.mu2, self.mu_z)


@dataclass(frozen=True)
class SecuritySettings:
    """Error-correction efficiency and failure-probability budget.

    ``eps_est`` is the total failure probability allotted to the
    statistical (Chernoff) estimation steps in finite mode;
    ``DecoyBounds.ledger`` shows how the steps share it.
    """

    f: float = 1.1
    eps_cor: float = 1e-10
    eps_pa: float = 1e-10
    eps_hat: float = 1e-10
    eps_est: float = 1e-10
    mode: str = "asymptotic"

    def __post_init__(self) -> None:
        if self.f < 1.0:
            raise ValueError("error-correction efficiency f must be >= 1")
        for name in ("eps_cor", "eps_pa", "eps_hat", "eps_est"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if math.sqrt(2.0) * self.eps_pa * self.eps_hat == 0.0:
            raise ValueError("eps_pa * eps_hat underflows to 0 in key_rate")
        if self.mode not in ("asymptotic", "finite"):
            raise ValueError("mode must be 'asymptotic' or 'finite'")


@dataclass(frozen=True)
class KeyRateInputs:
    """Post-processed quantities entering the final key-rate formula.

    ``n1_prime``: untagged-bit count after pairing; ``e1_ph_prime``:
    phase-flip rate of untagged bits after pairing; ``nt_prime``:
    remaining (emitted) bit count after pairing; ``e_bit_prime``:
    bit-flip error rate of the remaining bits.
    """

    n_windows: float
    n1_prime: float
    e1_ph_prime: float
    nt_prime: float
    e_bit_prime: float

    def __post_init__(self) -> None:
        if self.n_windows <= 0:
            raise ValueError("window count must be positive")
        if not 0.0 <= self.e1_ph_prime <= 0.5:
            raise ValueError("e1_ph_prime must lie in [0, 0.5]")
        if not 0.0 <= self.e_bit_prime <= 0.5:
            raise ValueError("e_bit_prime must lie in [0, 0.5]")
        if self.n1_prime < 0 or self.nt_prime < 0:
            raise ValueError("bit counts must be nonnegative")
        if self.n1_prime > self.nt_prime + _PROB_TOL * self.n_windows:
            raise ValueError("n1_prime cannot exceed nt_prime")
        if self.nt_prime > self.n_windows:
            raise ValueError("nt_prime cannot exceed the window count")


def key_rate(inputs: KeyRateInputs, sec: SecuritySettings, *, clamp: bool = True) -> float:
    """Secure key rate in bit/signal.

    In finite mode the two logarithmic correction terms are included;
    in asymptotic mode they are dropped.  The result is clamped at 0
    unless ``clamp=False`` (diagnostics retain the raw value).
    """
    gain = inputs.n1_prime * (1.0 - binary_entropy(inputs.e1_ph_prime))
    leak = sec.f * inputs.nt_prime * binary_entropy(inputs.e_bit_prime)
    bits = gain - leak
    if sec.mode == "finite":
        bits -= 2.0 * math.log2(2.0 / sec.eps_cor)
        bits -= 2.0 * math.log2(1.0 / (math.sqrt(2.0) * sec.eps_pa * sec.eps_hat))
    rate = bits / inputs.n_windows
    if clamp:
        return max(0.0, rate)
    return rate


def rate_per_second(rate_per_signal: float) -> float:
    """Convert bit/signal to bit/s at the effective clock rate."""
    return rate_per_signal * DEFAULT_CLOCK_HZ


def plob_bound(total_loss_db: float) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta) per channel use."""
    if total_loss_db < 0:
        raise ValueError("loss must be nonnegative")
    eta = 10.0 ** (-total_loss_db / 10.0)
    if eta >= 1.0:
        return math.inf
    return -math.log1p(-eta) / math.log(2.0)


def sns_balance_rhs(a: PartySettings, b: PartySettings) -> float:
    """Right-hand side of the intensity-balance condition for mu1_a/mu1_b."""
    num = a.epsilon_send * (1.0 - b.epsilon_send) * a.mu_z * math.exp(-a.mu_z)
    den = b.epsilon_send * (1.0 - a.epsilon_send) * b.mu_z * math.exp(-b.mu_z)
    if den == 0.0:
        raise ZeroDivisionError("balance condition undefined: denominator is zero")
    return num / den


def check_sns_constraint(a: PartySettings, b: PartySettings) -> float:
    """Relative deviation |mu1_a/mu1_b - RHS| / RHS of the balance condition."""
    rhs = sns_balance_rhs(a, b)
    if rhs == 0.0:
        raise ZeroDivisionError("balance condition undefined: RHS is zero")
    lhs = a.mu1 / b.mu1
    return abs(lhs - rhs) / rhs


def phase_misalignment_qber(sigma_rad: float, visibility: float) -> float:
    """X-basis error floor from Gaussian phase error and imperfect visibility.

    Gaussian expectation of sin^2(delta/2) with residual-phase std
    ``sigma_rad``, scaled by interference visibility.
    """
    if sigma_rad < 0:
        raise ValueError("sigma must be nonnegative")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return 0.5 * (1.0 - visibility * math.exp(-0.5 * sigma_rad * sigma_rad))
