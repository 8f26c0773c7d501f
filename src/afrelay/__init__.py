"""OFDM amplify-and-forward relay link simulator with closed-form SNR
cross-validation under per-link carrier frequency offsets."""

from .analysis import LinkStats, SnrBreakdown, analytical_snr, snr_db
from .channel import (
    PowerDelayProfile,
    draw_channel,
    exponential_profile,
    flat_profile,
    uniform_profile,
)
from .harness import (
    ConfigError,
    ConfigKeyError,
    ConfigParseError,
    ConfigValueError,
    ExperimentConfig,
    LinkSpec,
    SweepRow,
    config_from_dict,
    load_config,
    run_sweep,
    sweep_offsets,
    write_csv,
)
from .ofdm import OfdmParams, draw_symbols
from .relay import (
    RelayGainConfig,
    SweepPlan,
    gain_factor,
    simulate_block,
    sweep_plan,
)
from .transforms import dirichlet_gain, dirichlet_gain_derivative

__version__ = "0.1.0"
