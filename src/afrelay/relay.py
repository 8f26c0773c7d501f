"""End-to-end simulation of transmission periods, a block of trials at once.

A trial sends one OFDM symbol over M + 1 branches: branch 0 is the direct
link, one hop, and each other branch a two-hop amplify-and-forward relay;
a `Branch` describes either.  Each hop has its own multipath channel and
noise, and each branch its own fractional CFO.  The destination removes
the prefix, transforms each branch, co-phases it using genie knowledge of
the true dominant-term coefficient, and combines with equal gain.
`simulate_block` is the one simulator entry point: it runs a block of
trials at one sweep point or at many on the same draws.

The channel is applied per frequency bin: a cyclic prefix that covers the
channel memory (`channel.require_isi_free`) turns the linear convolution of
the prefix-extended symbol into the per-bin product H[k]X[k], so the body
of a branch's channel output is exactly v = idft(HX) and no time-domain
waveform is built (`tests/waveform.py` builds it, as an oracle).

The per-trial outcome splits every branch spectrum Y into its coherent
signal term |g| X, for the genie gain g = rho C(eps, 0) H, and the
remainder, branch by branch (not on the combined metric): the closed-form
SNR tracks the per-branch second moments, and the combined metric's signal
power would retain a cross term between branch magnitudes that the closed
form does not contain.  Derotation has unit modulus (phase 0 where g is
0), so the remainder's power is ||Y - gX||^2, by Parseval
N ||y - rho c v||^2 over the received body y, with c = C(eps, 0).  With
W = r - c for the CFO ramp r, y - rho c v is rho W v plus the scaled
noise, so a point only reduces per-branch arrays computed once per block:
no point runs a ramp, a transform or a derotation.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import draw_channel, frequency_response, require_isi_free, standard_noise
from .ofdm import OfdmParams, draw_symbols
from .transforms import dirichlet_gain, idft

_GAIN_MODES = ("fixed", "general", "upa", "upa_asymptotic")

# Products per chunk of points in `simulate_block`'s reductions: 128 KiB,
# so its memory does not grow with the number of points.
POINT_CHUNK_ELEMENTS = 2 ** 14


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


@dataclass(frozen=True)
class Branch:
    """One branch of the combiner for trial simulation: the direct link,
    one hop, or a relay, two hops.

    `hops` holds one profile per hop in order and `noise_vars` one
    per-sample variance per hop, of the noise received at the end of that
    hop; every noise but the last arrives amplified by `rho` (1 on the
    direct link).  `cfo`, `rho` and each noise variance are one point's
    float, or a sequence of P values, one per sweep point.
    """

    hops: tuple
    cfo: float | np.ndarray
    rho: float | np.ndarray
    noise_vars: tuple

    def __post_init__(self):
        if len(self.hops) not in (1, 2) or len(self.noise_vars) != len(self.hops):
            raise ValueError(f"a branch needs one or two hops and one noise variance per hop, "
                             f"got {len(self.hops)} and {len(self.noise_vars)}")
        if any(np.any(np.asarray(v) < 0) for v in self.noise_vars):
            raise ValueError("noise variances must be >= 0")


def _reduce(weights, data) -> np.ndarray:
    """Row sums of weights[p] * data[t], a (P, trials) array, over chunks
    of about POINT_CHUNK_ELEMENTS products.  Each is one last-axis
    `np.sum`, so no sum depends on the chunking or on the other points."""
    step = max(1, POINT_CHUNK_ELEMENTS // data.size)
    return np.concatenate([np.sum(weights[first:first + step, None] * data, axis=-1)
                           for first in range(0, len(weights), step)])


def _gram_terms(vectors, alphas) -> tuple:
    """Weights (P, K) and data (trials, K) whose row products sum to
    ||sum_j alphas[j] vectors[j]||^2: each Gram entry sum conj(x_j) x_k,
    k >= j, against alpha_j conj(alpha_k), twice off the diagonal."""
    weights, data = [], []
    for j, (x, alpha) in enumerate(zip(vectors, alphas)):
        conj_x = np.conj(x)
        for y, beta in zip(vectors[j:], alphas[j:]):
            pair = (1.0 if y is x else 2.0) * alpha * np.conj(beta)
            gram = np.sum(conj_x * y, axis=-1)
            weights += [pair.real, pair.imag]
            data += [gram.real, gram.imag]
    return np.stack(weights, axis=-1), np.stack(data, axis=-1)


def _ramp_terms(s, w, rho, vectors, alphas):
    """(weights (P, K), data (trials, K)) blocks whose row products sum to
    ||rho w (.) s||^2 + 2 Re <rho w (.) s, sum_j alphas[j] vectors[j]>:
    |w|^2 against |s|^2, then per vector 2 rho conj(alpha_j) w against
    conj(s) x_j, complex numbers viewed as (re, im) pairs."""
    conj_s = np.conj(s)
    yield rho[:, None] ** 2 * (w.real ** 2 + w.imag ** 2), s.real ** 2 + s.imag ** 2
    for x, alpha in zip(vectors, alphas):
        q = (2.0 * rho * np.conj(alpha))[:, None] * w
        yield q.view(np.float64), (conj_s * x).view(np.float64)


def simulate_block(
    params: OfdmParams,
    branches,
    rng: np.random.Generator,
    trials: int,
) -> TrialOutcome:
    """Run `trials` transmission periods at every point and decompose their spectra.

    The branches, direct link first, hold floats for one point, giving
    (trials,) powers, or sequences of P values, giving (P, trials) powers;
    every point receives the same draws.  Draw order is fixed: symbol
    indices (trials, N), each branch's taps hop by hop (each real block
    then imaginary block), then per branch and hop the noise at
    (trials, N + cp_len), of which the body is used.

    A branch applies the CFO-rotated cascade of its hops, scaled by rho;
    a noise received before the last hop arrives amplified by rho but
    neither convolved with the later hop nor rotated, and the last noise is
    added as is.  Every branch's channel memory must fit in the prefix
    (`ValueError` otherwise).  The genie gain of a branch is
    rho * C(cfo, 0) * prod H_i per bin, in hop order.  A point's signal is
    (rho |C(cfo, 0)|)^2 ||HX||^2; its residual is N times the Gram terms of
    the noise plus, at a nonzero offset (W != 0), the ramp terms of
    v = idft(HX).  Each point adds its branches' powers in branch order.
    """
    n = params.n_subcarriers
    branches = list(branches)
    fields = [v for br in branches for v in (br.cfo, br.rho, *br.noise_vars)]
    shape = np.broadcast_shapes(*map(np.shape, fields))

    def points(values):  # (len(values), P)
        return np.stack(np.broadcast_arrays(*values, np.empty(shape or (1,))))[:-1]

    for br in branches:  # the hop cascade's L1 + ... - (hops - 1) taps
        require_isi_free(params.cp_len, [sum(p.n_taps for p in br.hops) - len(br.hops) + 1],
                         "the channel")
    symbols = draw_symbols(params, rng, trials)
    hops = [[draw_channel(profile, rng, trials) for profile in br.hops] for br in branches]
    cfo = points([br.cfo for br in branches])
    rho = points([br.rho for br in branches])
    offsets = np.unique(cfo)  # per distinct offset: |C(cfo, 0)|, C(cfo, 0) and W
    gain = dirichlet_gain(offsets, n)
    coefficient = gain * np.exp(1j * np.pi * offsets * (1.0 - 1.0 / n))
    w = np.exp(2j * np.pi / n * offsets[:, None] * np.arange(n)) - coefficient[:, None]
    signal, residual = np.zeros((2,) + rho.shape[1:] + (trials,))
    for b, index in enumerate(np.searchsorted(offsets, cfo)):
        variances = points(branches[b].noise_vars)
        variances[:-1] *= rho[b] ** 2
        spectrum = frequency_response(hops[b][0], n)  # H, then HX
        for h in hops[b][1:]:
            spectrum *= frequency_response(h, n)
        magnitude = rho[b] * gain[index]  # |genie gain / H|
        if not (spectrum.all() and magnitude.all()):
            zero = np.flatnonzero(np.any(spectrum == 0, axis=0) | np.any(magnitude == 0))
            warnings.warn(f"genie gain is exactly zero at bins {zero.tolist()}; "
                          "derotation phase set to 0 there", stacklevel=2)
        spectrum *= symbols
        signal += magnitude[:, None] ** 2 * np.sum(spectrum.real ** 2 + spectrum.imag ** 2, -1)
        body = idft(spectrum)
        vectors = [standard_noise((trials, n + params.cp_len), rng)[:, params.cp_len:]
                   for _ in variances]
        alphas = list(np.sqrt(variances / 2.0))
        residual += n * _reduce(*_gram_terms(vectors, alphas))
        moving = np.flatnonzero(offsets[index] != 0)
        if moving.size:
            blocks = _ramp_terms(body, w[index[moving]], rho[b, moving], vectors,
                                 [alpha[moving] for alpha in alphas])
            residual[moving] += n * sum(_reduce(*block) for block in blocks)
    return TrialOutcome(signal.reshape(shape + (trials,)), residual.reshape(shape + (trials,)))
