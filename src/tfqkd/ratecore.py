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


def domains(**intervals: str) -> tuple[tuple[str, float, float, str], ...]:
    """One ``(field, lo, hi, interval)`` per field, from intervals written
    ``"[lo, hi)"`` with ends such as ``inf`` or ``2**63``.  An open end
    becomes the nearest float inside, so ``lo <= value <= hi`` is the
    whole check: ``[0, inf)`` holds every finite float from 0, and NaN
    lies in no interval."""
    table = []
    for name, text in intervals.items():
        lo, hi = (float(b) ** int(p) if p else float(b) for b, _, p in
                  (end.partition("**") for end in text[1:-1].split(", ")))
        if text[0] == "(":
            lo = math.nextafter(lo, math.inf)
        if text[-1] == ")":
            hi = math.nextafter(hi, -math.inf)
        table.append((name, lo, hi, text))
    return tuple(table)


def check_domains(settings) -> None:
    """Raise ValueError for the first field outside its ``_DOMAINS``."""
    for name, lo, hi, text in settings._DOMAINS:
        value = getattr(settings, name)
        if not lo <= value <= hi:
            raise ValueError(f"{name} must lie in {text}, got {value!r}")


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

    # The decoy bound's mu2**2 exp(mu1) overflows near 696.7; the balance
    # condition needs a party that sometimes, not always, sends.
    _DOMAINS = domains(mu_z="(0, 690]", mu2="[0, 690]", mu1="[0, 690]",
                       mu0="[0, 690]", p_signal_window="[0, 1]",
                       epsilon_send="(0, 1)", p_mu0="[0, 1]", p_mu1="[0, 1]")

    def __post_init__(self) -> None:
        check_domains(self)
        if not self.mu0 < self.mu1 < self.mu2:
            raise ValueError("require mu0 < mu1 < mu2")
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

    _DOMAINS = domains(f="[1, inf)", eps_cor="(0, 1)", eps_pa="(0, 1)",
                       eps_hat="(0, 1)", eps_est="(0, 1)")

    def __post_init__(self) -> None:
        check_domains(self)
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

    _DOMAINS = domains(n_windows="(0, 2**63)", n1_prime="[0, 2**63)",
                       e1_ph_prime="[0, 0.5]", nt_prime="[0, 2**63)",
                       e_bit_prime="[0, 0.5]")

    def __post_init__(self) -> None:
        check_domains(self)
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
    return 0.5 * (1.0 - visibility * math.exp(-0.5 * sigma_rad * sigma_rad))
