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
    add_noise,
    apply_cfo,
    apply_channel,
    draw_channel,
    frequency_response,
    linear_convolve,
    require_isi_free,
    standard_noise,
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

    Arrays of shape (trials,) for a one-point block, (P, trials) for a
    block of P points, floats for `simulate_trial`.
    """

    signal_power: np.ndarray | float
    residual_power: np.ndarray | float
    subcarrier_count: int


def _points(value, shape: tuple) -> list:
    """A per-point path field as Python floats, one per point; a float
    field is shared by every point."""
    return np.broadcast_to(np.asarray(value, dtype=np.float64), shape or (1,)).tolist()


def _received(x, hops, cfos, rhos, noise_vars, rng, params):
    """One branch's received samples at each point, one point at a time.

    `hops` holds the branch's tap realizations: one array for the direct
    link, hop 1 and hop 2 for a relay, whose cascade is applied as one
    channel.  The channel output is computed once, and each noise source's
    normals are drawn once, in order, before the first point; all points
    share them.  Point p then applies its CFO ramp, its gain rhos[p] (rhos
    is None for the unamplified direct link) and, per noise source, its
    variance noise_vars[source][p].  Consume every point of one branch
    before the next branch draws.
    """
    counts = [np.shape(h)[-1] for h in hops]
    require_isi_free(params.cp_len, counts, "the direct channel" if len(hops) == 1 else "the relay")
    taps = hops[0] if len(hops) == 1 else linear_convolve(*hops, sum(counts) - 1)
    faded = apply_channel(x, taps, params)
    noises = [standard_noise(faded.shape, rng) for _ in noise_vars]
    for p, cfo in enumerate(cfos):
        y = apply_cfo(faded, cfo, params)
        if rhos is not None:
            y *= rhos[p]
        for noise, variances in zip(noises, noise_vars):
            y = add_noise(y, noise, variances[p])
        yield y


def _relay_points(path: RelayPath, shape: tuple = ()) -> tuple:
    """Offsets, gains and noise variances per point of a relay branch: the
    relay's own noise arrives amplified by rho, the destination's after it."""
    rhos = _points(path.rho, shape)
    relay = [rho ** 2 * var for rho, var in zip(rhos, _points(path.relay_noise_var, shape))]
    return _points(path.cfo, shape), rhos, [relay, _points(path.dest_noise_var, shape)]


def simulate_direct(
    x,
    taps,
    cfo: float,
    noise_var: float,
    rng: np.random.Generator,
    params: OfdmParams,
) -> np.ndarray:
    """Direct source-to-destination link: channel, CFO ramp, then AWGN."""
    return next(_received(x, [taps], [cfo], None, [[noise_var]], rng, params))


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
    return next(_received(x, [hop1, hop2], *_relay_points(path), rng, params))


def branch_gain(hops, cfo: float, n: int, scale: float = 1.0) -> np.ndarray:
    """True dominant-term coefficient per bin: scale * C(cfo,0) * prod H_i[k].

    This is the quantity the genie-aided receiver is granted; its argument
    is the derotation phase and its magnitude the coherent signal weight.
    """
    return _genie_gain([frequency_response(taps, n) for taps in hops], cfo, n, scale)


def _genie_gain(responses, cfo: float, n: int, scale: float) -> np.ndarray:
    """`branch_gain` from the hops' frequency responses, in hop order."""
    g = np.full(n, scale * cfo_spectrum(cfo, 0, n), dtype=np.complex128)
    for response in responses:
        g = g * response
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
    """Statistical description of the direct link for trial simulation.

    `cfo` and `noise_var` are one point's floats, or sequences of P values,
    one per sweep point.
    """

    profile: PowerDelayProfile
    cfo: float | np.ndarray
    noise_var: float | np.ndarray  # per sample


@dataclass(frozen=True)
class RelayPath:
    """Statistical description of one relay branch for trial simulation.

    Every field but the two profiles is one point's float, or a sequence
    of P values, one per sweep point.
    """

    hop1_profile: PowerDelayProfile
    hop2_profile: PowerDelayProfile
    cfo: float | np.ndarray
    rho: float | np.ndarray
    relay_noise_var: float | np.ndarray  # per sample, received at the relay and amplified
    dest_noise_var: float | np.ndarray   # per sample, added at the destination


def simulate_block(
    params: OfdmParams,
    direct: DirectPath,
    relays,
    rng: np.random.Generator,
    trials: int,
) -> TrialOutcome:
    """Run `trials` transmission periods at every point and decompose their spectra.

    The paths' offsets, gains and noise variances are floats for one
    point, giving (trials,) powers, or sequences of P values, giving
    (P, trials) powers; every point receives the same draws.  Draw order
    is fixed: symbol indices (trials, N), direct taps, each relay's hop1
    then hop2 taps (each real block then imaginary block), then per path
    in order (direct, relay 1..M) the noise, relay noise before
    destination noise.  Symbols, taps, channel outputs, hop responses and
    noise are computed once for all points.  Branches are the outer loop
    and points the inner one, so one branch's noise and one point's
    samples are alive at a time; each point adds its branches' powers in
    branch order.
    """
    n = params.n_subcarriers
    relays = list(relays)
    fields = [direct.cfo, direct.noise_var] + [
        v for r in relays for v in (r.cfo, r.rho, r.relay_noise_var, r.dest_noise_var)
    ]
    shape = np.broadcast_shapes(*map(np.shape, fields))
    symbols = draw_symbols(params, rng, trials)
    tx = modulate(symbols, params)

    direct_taps = draw_channel(direct.profile, rng, trials)
    hop_taps = [
        [draw_channel(r.hop1_profile, rng, trials), draw_channel(r.hop2_profile, rng, trials)]
        for r in relays
    ]
    branches = [([direct_taps], _points(direct.cfo, shape), None,
                 [_points(direct.noise_var, shape)])]
    branches += [(hops, *_relay_points(r, shape)) for hops, r in zip(hop_taps, relays)]

    signal = np.zeros((len(branches[0][1]), trials))
    residual = np.zeros_like(signal)
    for hops, cfos, rhos, noise_vars in branches:
        responses = [frequency_response(taps, n) for taps in hops]
        received = _received(tx, hops, cfos, rhos, noise_vars, rng, params)
        for p, y in enumerate(received):
            gain = _genie_gain(responses, cfos[p], n, 1.0 if rhos is None else rhos[p])
            outcome = decompose_trial([derotate_branch(y, gain, params)], [gain], symbols)
            signal[p] += outcome.signal_power
            residual[p] += outcome.residual_power
    shape += (trials,)
    return TrialOutcome(signal.reshape(shape), residual.reshape(shape), n)


def simulate_trial(
    params: OfdmParams,
    direct: DirectPath,
    relays,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Run one full transmission period at one point: `simulate_block`
    with one trial."""
    block = simulate_block(params, direct, relays, rng, 1)
    return TrialOutcome(
        block.signal_power.item(), block.residual_power.item(), block.subcarrier_count
    )
