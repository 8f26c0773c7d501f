"""OFDM amplify-and-forward relay link simulator with closed-form SNR
cross-validation under per-link carrier frequency offsets."""

from .analysis import LinkStats, SnrBreakdown, analytical_snr
from .channel import (
    PowerDelayProfile,
    apply_cfo,
    apply_channel,
    draw_channel,
    exponential_profile,
    flat_profile,
    frequency_response,
    linear_convolve,
    uniform_profile,
)
from .harness import (
    ConfigError,
    ConfigKeyError,
    ConfigParseError,
    ConfigValueError,
    EmpiricalSnr,
    ExperimentConfig,
    PointAssignment,
    RelaySpec,
    SweepRow,
    config_from_dict,
    load_config,
    run_point,
    run_sweep,
    sweep_offsets,
    write_csv,
)
from .ofdm import OfdmParams, draw_symbols, modulate, remove_cp
from .relay import (
    DirectPath,
    RelayGainConfig,
    RelayPath,
    TrialOutcome,
    gain_factor,
    simulate_block,
)
from .transforms import (
    cfo_spectrum,
    dft,
    dirichlet_gain,
    dirichlet_gain_derivative,
    idft,
)

__version__ = "0.1.0"
