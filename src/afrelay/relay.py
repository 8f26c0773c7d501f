"""End-to-end simulation of transmission periods, a block of trials at once.

A trial sends one OFDM symbol over the direct link and over one or more
two-hop amplify-and-forward relay branches, each impaired by its own
multipath channel(s), fractional CFO, and noise.  The destination removes
the prefix, transforms each branch, co-phases it using genie knowledge of
the true dominant-term coefficient, and combines with equal gain.

The per-trial outcome splits every branch spectrum into its coherent
signal term and the interference-plus-noise remainder.  The split is done
branch by branch (not on the combined metric): the closed-form SNR tracks
the per-branch second moments, and the combined metric's signal power
would retain a cross term between branch magnitudes that the closed form
does not contain.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (
    PowerDelayProfile,
    add_awgn,
    apply_cfo,
    apply_channel,
    draw_channel,
    frequency_response,
    linear_convolve,
)
from .ofdm import OfdmParams, draw_symbols, modulate, remove_cp
from .transforms import cfo_spectrum, dft

_GAIN_MODES = ("fixed", "general", "upa", "upa_asymptotic")


@dataclass(frozen=True)
class RelayGainConfig:
    """How the relay's amplification factor is chosen.

    fixed           -- use `rho` as given.
    general         -- power-constrained forwarding: the relay retransmits
                       at `relay_power` given a source transmitting at
                       `source_power`.
    upa             -- uniform allocation of `total_power` between source
                       and relay (each gets half).
    upa_asymptotic  -- the total_power >> noise limit of upa.
    """

    mode: str = "upa"
    rho: float | None = None
    total_power: float | None = None
    source_power: float | None = None
    relay_power: float | None = None

    def __post_init__(self):
        if self.mode not in _GAIN_MODES:
            raise ValueError(f"unknown gain mode {self.mode!r}, expected one of {_GAIN_MODES}")
        if self.mode == "fixed" and (self.rho is None or self.rho <= 0):
            raise ValueError("fixed gain mode requires rho > 0")
        if self.mode == "general" and (
            self.source_power is None
            or self.relay_power is None
            or self.source_power <= 0
            or self.relay_power <= 0
        ):
            raise ValueError("general gain mode requires source_power > 0 and relay_power > 0")
        if self.mode == "upa" and (self.total_power is None or self.total_power <= 0):
            raise ValueError("upa gain mode requires total_power > 0")


def gain_factor(cfg: RelayGainConfig, hop1_gain_var: float, relay_noise_var: float) -> float:
    """Relay amplification factor for the given first-hop statistics.

    general: rho = sqrt(P_relay / (hop1_gain_var * P_source + relay_noise_var))
    upa:     rho = sqrt(1 / (hop1_gain_var + 2 * relay_noise_var / P_total))
    upa_asymptotic: rho = 1 / sqrt(hop1_gain_var)
    """
    if hop1_gain_var < 0 or relay_noise_var < 0:
        raise ValueError("powers must be non-negative")
    if cfg.mode == "fixed":
        return float(cfg.rho)
    if cfg.mode == "general":
        den = hop1_gain_var * cfg.source_power + relay_noise_var
        if den <= 0:
            raise ValueError("relay input power is zero; gain factor undefined")
        return float(np.sqrt(cfg.relay_power / den))
    if cfg.mode == "upa":
        den = hop1_gain_var + 2.0 * relay_noise_var / cfg.total_power
        if den <= 0:
            raise ValueError("relay input power is zero; gain factor undefined")
        return float(np.sqrt(1.0 / den))
    # upa_asymptotic
    if hop1_gain_var == 0:
        raise ValueError("asymptotic uniform allocation undefined for zero first-hop power")
    return float(1.0 / np.sqrt(hop1_gain_var))


@dataclass(frozen=True)
class TrialOutcome:
    """Signal and interference-plus-noise powers per trial.

    Arrays of shape (trials,) for a block, floats for `simulate_trial`.
    """

    signal_power: np.ndarray | float
    residual_power: np.ndarray | float
    subcarrier_count: int


def simulate_direct(
    x,
    taps,
    cfo: float,
    noise_var: float,
    rng: np.random.Generator,
    params: OfdmParams,
) -> np.ndarray:
    """Direct source-to-destination link: channel, CFO ramp, then AWGN."""
    n_taps = np.shape(taps)[-1]
    if params.cp_len < n_taps:
        raise ValueError(
            f"inter-symbol interference: direct channel has {n_taps} taps but the "
            f"cyclic prefix holds {params.cp_len} samples"
        )
    y = apply_cfo(apply_channel(x, taps, params), cfo, params)
    return add_awgn(y, noise_var, rng)


def simulate_relay_branch(
    x,
    hop1,
    hop2,
    path: RelayPath,
    rng: np.random.Generator,
    params: OfdmParams,
) -> np.ndarray:
    """Amplify-and-forward branch: both hops cascade, one CFO ramp.

    The forwarded waveform is rho times the CFO-rotated cascade of both
    hop channels; the relay's own received noise arrives amplified by rho
    but neither convolved with the second hop nor rotated, and the
    destination adds its own noise last.  `path` supplies the offset, the
    gain and the noise variances; the hop taps are given realizations.
    """
    l1, l2 = np.shape(hop1)[-1], np.shape(hop2)[-1]
    if params.cp_len < l1 + l2:
        raise ValueError(
            f"inter-symbol interference: relay hops have {l1}+{l2} taps but the "
            f"cyclic prefix holds {params.cp_len} samples"
        )
    cascade = linear_convolve(hop1, hop2, l1 + l2 - 1)
    y = path.rho * apply_cfo(apply_channel(x, cascade, params), path.cfo, params)
    y = add_awgn(y, path.rho ** 2 * path.relay_noise_var, rng)
    return add_awgn(y, path.dest_noise_var, rng)


def branch_gain(hops, cfo: float, n: int, scale: float = 1.0) -> np.ndarray:
    """True dominant-term coefficient per bin: scale * C(cfo,0) * prod H_i[k].

    This is the quantity the genie-aided receiver is granted; its argument
    is the derotation phase and its magnitude the coherent signal weight.
    """
    g = np.full(n, scale * cfo_spectrum(cfo, 0, n), dtype=np.complex128)
    for taps in hops:
        g = g * frequency_response(taps, n)
    return g


def derotate_branch(samples, gain: np.ndarray, params: OfdmParams) -> np.ndarray:
    """Remove the prefix, transform, and co-phase one branch, row by row.

    Bins where the genie gain is exactly zero have no defined phase; they
    are derotated by 0 and reported through a warning, which keeps the
    statistics unbiased (the event has probability zero under continuous
    fading).
    """
    body = remove_cp(samples, params)
    if gain.shape[-1] != body.shape[-1]:
        raise ValueError("expected one genie gain per subcarrier")
    magnitude = np.abs(gain)
    nonzero = magnitude > 0
    if not nonzero.all():
        zero_bins = np.flatnonzero(~nonzero.all(axis=tuple(range(gain.ndim - 1))))
        warnings.warn(
            f"genie gain is exactly zero at bins {zero_bins.tolist()}; "
            "derotation phase set to 0 there",
            stacklevel=2,
        )
    # exp(-j arg g) = conj(g)/|g|, and 1 where g = 0
    derotation = np.ones(gain.shape, dtype=np.complex128)
    np.divide(np.conj(gain), magnitude, out=derotation, where=nonzero)
    return dft(body) * derotation


def decompose_trial(branch_spectra, gains, symbols) -> TrialOutcome:
    """Split derotated branch spectra into signal and residual powers.

    Per branch b and bin k the coherent signal term is |g_b[k]| X[k]; the
    residual is everything else (inter-carrier leakage plus noise).  Both
    squared magnitudes are summed over bins and then over branches, one
    branch at a time, giving one value per trial row.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    signal_power = residual_power = 0.0
    for spectrum, gain in zip(branch_spectra, gains, strict=True):
        coherent = np.abs(gain) * symbols
        signal_power = signal_power + np.sum(np.abs(coherent) ** 2, axis=-1)
        residual_power = residual_power + np.sum(np.abs(spectrum - coherent) ** 2, axis=-1)
    return TrialOutcome(signal_power, residual_power, symbols.shape[-1])


@dataclass(frozen=True)
class DirectPath:
    """Statistical description of the direct link for trial simulation."""

    profile: PowerDelayProfile
    cfo: float
    noise_var: float  # per sample


@dataclass(frozen=True)
class RelayPath:
    """Statistical description of one relay branch for trial simulation."""

    hop1_profile: PowerDelayProfile
    hop2_profile: PowerDelayProfile
    cfo: float
    rho: float
    relay_noise_var: float  # per sample, received at the relay and amplified
    dest_noise_var: float   # per sample, added at the destination


def simulate_block(
    params: OfdmParams,
    direct: DirectPath,
    relays,
    rng: np.random.Generator,
    trials: int,
) -> TrialOutcome:
    """Run `trials` transmission periods at once and decompose their spectra.

    Every stage works on (trials, N + cp_len) arrays.  Draw order is fixed:
    symbol indices (trials, N), direct taps, each relay's hop1 then hop2
    taps (each real block then imaginary block), then per path in order
    (direct, relay 1..M) the noise, relay noise before destination noise.
    Branches are received and reduced one at a time; only the (trials, N)
    genie gains are held for every branch at once.
    """
    n = params.n_subcarriers
    relays = list(relays)
    symbols = draw_symbols(params, rng, trials)
    tx = modulate(symbols, params)

    direct_taps = draw_channel(direct.profile, rng, trials)
    hop_taps = [
        (draw_channel(r.hop1_profile, rng, trials), draw_channel(r.hop2_profile, rng, trials))
        for r in relays
    ]
    gains = [branch_gain([direct_taps], direct.cfo, n)] + [
        branch_gain([h1, h2], spec.cfo, n, scale=spec.rho)
        for (h1, h2), spec in zip(hop_taps, relays)
    ]

    def received():
        # lazily: one branch's samples alive at a time, noise drawn in path order
        yield simulate_direct(tx, direct_taps, direct.cfo, direct.noise_var, rng, params)
        for (h1, h2), spec in zip(hop_taps, relays):
            yield simulate_relay_branch(tx, h1, h2, spec, rng, params)

    spectra = (derotate_branch(y, g, params) for y, g in zip(received(), gains))
    return decompose_trial(spectra, gains, symbols)


def simulate_trial(
    params: OfdmParams,
    direct: DirectPath,
    relays,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Run one full transmission period: `simulate_block` with one trial."""
    block = simulate_block(params, direct, relays, rng, 1)
    return TrialOutcome(
        float(block.signal_power[0]), float(block.residual_power[0]), block.subcarrier_count
    )
