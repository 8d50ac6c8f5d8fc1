"""Twin-field QKD link simulator and key-rate toolkit."""

from .counts import CATEGORIES, CountsTable
from .engine import EngineSettings, expected_counts, simulate
from .optics import DetectorModel, LinkConfig, NoiseModel
from .postproc import (DecoyBounds, PairingResult, ProcessedRun, ZBasisStats,
                       aopp_pair, aopp_phase_error, chernoff_lower,
                       chernoff_upper,
                       decoy_bounds, odd_parity_pairing, process,
                       z_basis_stats)
from .presets import ExperimentConfig, RunSettings, get_preset, preset_names
from .ratecore import (KeyRateInputs, PartySettings, SecuritySettings,
                       binary_entropy, check_sns_constraint, key_rate,
                       phase_misalignment_qber, plob_bound, rate_per_second)
from .servo import (LoopConfig, PIDState, StabilizationSummary,
                    aom_precompensation, fast_loop_step, frequency_readout,
                    run_stabilization, slow_loop_step, timing_loop_step)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
