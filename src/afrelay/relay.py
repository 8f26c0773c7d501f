"""End-to-end simulation of transmission periods, a block of trials at once.

A trial sends one OFDM symbol over the direct link and over one or more
two-hop amplify-and-forward relay branches, each impaired by its own
multipath channel(s), fractional CFO, and noise.  The destination removes
the prefix, transforms each branch, co-phases it using genie knowledge of
the true dominant-term coefficient, and combines with equal gain.
`simulate_block` is the one simulator entry point: it runs a block of
trials at one sweep point or at many on the same draws.

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
    """Signal and interference-plus-noise powers per trial: arrays of
    shape (trials,) for a one-point block, (P, trials) for P points."""

    signal_power: np.ndarray
    residual_power: np.ndarray


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


def _branch_powers(samples, gain: np.ndarray, symbols: np.ndarray, params: OfdmParams) -> tuple:
    """Co-phase one branch with its genie gain and split it, row by row.

    The prefix is removed, the body transformed and each bin derotated by
    exp(-j arg g) = conj(g)/|g|.  Per bin the coherent signal term is
    |g[k]| X[k]; the residual is everything else (inter-carrier leakage
    plus noise).  Returns both squared magnitudes summed over bins.  Bins
    where the genie gain is exactly zero have no defined phase; they are
    derotated by 0 and reported through a warning, which keeps the
    statistics unbiased (the event has probability zero under continuous
    fading).
    """
    magnitude = np.abs(gain)
    nonzero = magnitude > 0
    if not nonzero.all():
        zero_bins = np.flatnonzero(~nonzero.all(axis=tuple(range(gain.ndim - 1))))
        warnings.warn(
            f"genie gain is exactly zero at bins {zero_bins.tolist()}; "
            "derotation phase set to 0 there",
            stacklevel=2,
        )
    derotation = np.ones(gain.shape, dtype=np.complex128)
    np.divide(np.conj(gain), magnitude, out=derotation, where=nonzero)
    spectrum = dft(remove_cp(samples, params)) * derotation
    # freed before the sums: kept alive through them, this (trials, N)
    # block made glibc trim and refault the heap top, 2.5x the minor page
    # faults of a fig3_flat sweep
    del derotation
    coherent = magnitude * symbols
    return (np.sum(np.abs(coherent) ** 2, axis=-1),
            np.sum(np.abs(spectrum - coherent) ** 2, axis=-1))


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
    noise are computed once for all points.

    A relay forwards rho times the CFO-rotated cascade of both hops; its
    own received noise arrives amplified by rho but neither convolved with
    the second hop nor rotated, and the destination adds its noise last.
    The genie gain of a branch is rho * C(cfo, 0) * prod H_i per bin, in
    hop order (rho = 1 on the direct link).  Branches are the outer loop
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
    for hops, r in zip(hop_taps, relays):
        rhos = _points(r.rho, shape)
        amplified = [rho ** 2 * var for rho, var in zip(rhos, _points(r.relay_noise_var, shape))]
        branches.append((hops, _points(r.cfo, shape), rhos,
                         [amplified, _points(r.dest_noise_var, shape)]))

    signal = np.zeros((len(branches[0][1]), trials))
    residual = np.zeros_like(signal)
    for hops, cfos, rhos, noise_vars in branches:
        responses = [frequency_response(taps, n) for taps in hops]
        received = _received(tx, hops, cfos, rhos, noise_vars, rng, params)
        for p, y in enumerate(received):
            scale = 1.0 if rhos is None else rhos[p]
            gain = np.full(n, scale * cfo_spectrum(cfos[p], 0, n), dtype=np.complex128)
            for response in responses:
                gain = gain * response
            branch_signal, branch_residual = _branch_powers(y, gain, symbols, params)
            signal[p] += branch_signal
            residual[p] += branch_residual
    shape += (trials,)
    return TrialOutcome(signal.reshape(shape), residual.reshape(shape))
