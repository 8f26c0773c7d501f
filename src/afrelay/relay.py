"""End-to-end simulation of transmission periods, a block of trials at once.

A trial sends one OFDM symbol over M + 1 branches: branch 0 is the direct
link, one hop, and each other branch a two-hop amplify-and-forward relay.
Each hop has its own multipath channel, and each branch its own gain rho,
fractional CFO and one noise: the relay's noise is neither convolved with
the later hop nor rotated, so with the destination's it is one Gaussian of
the closed form's variance s_b per bin.  The destination removes the
prefix, transforms each branch, co-phases it using genie knowledge of the
true dominant-term coefficient, and combines with equal gain.
`simulate_block` is the one simulator entry point: it runs one
random-stream block of trials at P sweep points on the same draws, reading
the sweep's `SweepPlan`, which `sweep_plan` builds once per sweep from the
closed form's own `LinkStats` and checks.

The channel is applied per frequency bin: a cyclic prefix that covers the
channel memory (`channel.require_isi_free`) turns the linear convolution of
the prefix-extended symbol into the per-bin product H[k]X[k], so the body
of a branch's channel output is exactly v = ifft(HX) and no time-domain
waveform is built (`tests/waveform.py` builds it, as an oracle).

The per-trial outcome splits every branch spectrum Y into its coherent
signal term |g| X, for the genie gain g = rho C(eps, 0) H, and the
remainder, branch by branch (not on the combined metric): the closed-form
SNR tracks the per-branch second moments, and the combined metric's signal
power would retain a cross term between branch magnitudes that the closed
form does not contain.  Derotation has unit modulus, so the remainder's
power is ||Y - gX||^2 and needs no phase where g is 0; by Parseval it is
N ||y - rho c v||^2 over the received body y, with c = C(eps, 0).  With
W = r - c for the CFO ramp r, y - rho c v is rho W v plus the branch's
noise body n, of variance s_b / N per sample.  Given the trial's symbols
and channels, N ||rho W v + n||^2 has the exact mean N (s_b + rho^2 ||z||^2)
for z = W v, since the cross term with n has mean 0.  The engine uses that
conditional mean (conditional Monte Carlo) and draws no noise; the
leakage ||z||^2, the CFO's cost, stays drawn, so the simulator does not
recompute the closed form.  |v|^2 is formed once per branch, and
||z_u||^2 = sum |W_u|^2 |v|^2 over its distinct nonzero offsets u is one
`np.einsum` contraction, which calls no BLAS; the plan holds |W_u|^2.  A
point only adds s_b and its own rho, so no point runs a ramp, a transform
or a derotation, and a branch at zero offset on every point transforms
nothing back to the time domain.  A relay of short multi-tap hops takes one
N-point transform of their convolved taps (`channel.branch_response`),
and a branch of flat hops none: its response is one (trials, 1) column
h, so v = h x for x = ifft(X), and it reduces X at scale |h|^2 where a
multi-tap branch reduces its own HX at scale 1.  The first flat branch
reduces X at every flat branch's offsets, so a block of flat branches
runs at most one transform, ifft(X).  Overflow is checked per branch.

A block works in one pair of (B, N) complex buffers, which
`harness._simulate_blocks` allocates once per block range; a short last
block uses their first rows.  The symbols are drawn into the first.  Each
multi-tap branch writes its forward transform into the second, forms HX
there and transforms it back in place; the flat branches' ifft(X) is
written there too, never over X, which later branches still read.  Only
the returned powers, which outlive the block, are fresh: one (2, P,
trials) float64 array, row 0 the signal and row 1 the residual of every
point and trial, the table `harness.trial_powers` joins in block order.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .analysis import LinkStats
from .channel import branch_response, draw_channel, require_isi_free
from .ofdm import OfdmParams, draw_symbols
from .transforms import dirichlet_gain

_GAIN_PARAMS = {"fixed": ("rho",), "general": ("source_power", "relay_power"),
                "upa": ("total_power",), "upa_asymptotic": ()}


@dataclass(frozen=True)
class RelayGainConfig:
    """How the relay's amplification factor is chosen: each mode reads its
    parameters in `_GAIN_PARAMS`, each > 0, and every other one is None.

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
        modes = tuple(_GAIN_PARAMS)  # matched by ==, so an unhashable mode is unknown too
        if self.mode not in modes:
            raise ValueError(f"unknown gain mode {self.mode!r}, expected one of {modes}")
        for key in [f.name for f in fields(self)][1:]:  # each parameter after `mode`
            value = getattr(self, key)
            if key not in _GAIN_PARAMS[self.mode]:
                if value is not None:
                    raise ValueError(f"{self.mode} gain mode does not read {key}")
            elif value is None or not value > 0:  # NaN fails too
                raise ValueError(f"{self.mode} gain mode requires {key} > 0")


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
class SweepPlan:
    """What every `simulate_block` call of a sweep reads, built once by
    `sweep_plan`; the per-branch fields list the direct link first."""

    params: OfdmParams
    hops: tuple        # each branch's hop profiles
    rho: np.ndarray    # (P, M + 1) gain of each point and branch
    noise: np.ndarray  # (P, M + 1) per-bin noise s_b
    gain: np.ndarray   # |C(u, 0)| per distinct offset u, ascending
    w2: np.ndarray     # |W_u|^2 per distinct offset, (offsets, N)
    index: np.ndarray  # (M + 1, P): each branch's offset index per point
    moving: tuple      # each branch's distinct nonzero offsets, by index
    flat: np.ndarray   # the flat branches' distinct nonzero offsets, by index


def sweep_plan(params: OfdmParams, hops: list, rho: np.ndarray, stats: LinkStats) -> SweepPlan:
    """The engine's plan from each branch's hop profiles, direct link first,
    the (P, M + 1) gains and the closed form's table of the same points,
    whose offsets and per-bin noise s_b the engine reads.  It is the one
    place the engine's inputs are checked: a branch has one or two hops,
    and its channel memory must fit in the prefix (`ValueError` otherwise).
    """
    n, cp = params.n_subcarriers, params.cp_len
    shape = np.shape(stats.cfos)  # (P, M + 1)
    if (len(hops), np.shape(rho), stats.n_subcarriers) != (shape[1], shape, n):
        raise ValueError(f"need {shape[1]} hop lists, rho of shape {shape} and stats at N = {n}; "
                         f"got {len(hops)}, {np.shape(rho)} and N = {stats.n_subcarriers}")
    for link in hops:  # the hop cascade's L1 + ... - (hops - 1) taps
        if len(link) not in (1, 2):
            raise ValueError(f"a branch needs one or two hops, got {len(link)}")
        require_isi_free(cp, [sum(p.n_taps for p in link) - len(link) + 1], "the channel")
    cfo, rho, noise = (np.asarray(v, dtype=np.float64) for v in (stats.cfos, rho, stats.noise_vars))
    offsets = np.unique(cfo)  # per distinct offset: |C(cfo, 0)|, C(cfo, 0) and W
    gain = dirichlet_gain(offsets, n)
    coefficient = gain * np.exp(1j * np.pi * offsets * (1.0 - 1.0 / n))
    w = np.exp(2j * np.pi / n * offsets[:, None] * np.arange(n)) - coefficient[:, None]
    index = np.searchsorted(offsets, cfo).T
    flat = np.array([all(p.n_taps == 1 for p in link) for link in hops])

    def moving(i):  # W is exactly 0 at a zero offset: a branch's leakage there stays 0
        return np.unique(i[offsets[i] != 0])

    return SweepPlan(params, tuple(map(tuple, hops)), rho, noise, gain, w.real ** 2 + w.imag ** 2,
                     index, tuple(map(moving, index)), moving(index[flat]))


def _sums(spectrum: np.ndarray, w2: np.ndarray, moving: np.ndarray, out: np.ndarray) -> tuple:
    """||S||^2 per trial and the (offsets, trials) sums |W_u|^2 |ifft(S)|^2,
    zero at the offsets not in `moving`; no transform if `moving` is empty.
    The transform is written into `out`, which may be `spectrum` itself.
    The norms are one `einsum`, and the sums of every offset in `moving`
    another; neither calls BLAS."""
    sv = spectrum.view(np.float64)  # (re, im) pairs
    norm, leakage = np.einsum("tn,tn->t", sv, sv), np.zeros((len(w2), len(spectrum)))
    if moving.size:
        body = np.fft.ifft(spectrum, axis=-1, out=out).view(np.float64)
        np.square(body, out=body)
        v2 = body[:, 0::2] + body[:, 1::2]  # |v|^2
        leakage[moving] = np.einsum("tn,un->ut", v2, w2[moving])
    return norm, leakage


def simulate_block(plan: SweepPlan, rng: np.random.Generator, trials: int,
                   buffers: np.ndarray | None = None) -> np.ndarray:
    """Run one stream block of `trials` trials at every point of `plan`
    and decompose their spectra into a (2, P, trials) float64 array: row
    0 the signal power and row 1 the residual power of each point and
    trial.

    `buffers` is a (2, rows, N) complex array of rows >= trials that the
    block works in; its first `trials` rows are overwritten, and nothing
    returned refers to it, so a block range can reuse one set for every
    block.  Without it the block allocates its own.

    Every point receives the same draws.  `rng` draws, in order: symbol
    indices (trials, N), then each branch's taps hop by hop (each real
    block then imaginary block), and nothing else.

    A branch applies the CFO-rotated cascade of its hops, scaled by rho;
    its noise enters by its conditional mean.  The genie gain of a branch
    is rho * C(cfo, 0) * H per bin, for H = prod H_i over its hops
    (`channel.branch_response`).  A point's signal is
    (rho |C(cfo, 0)|)^2 ||HX||^2.  Its residual is N s_b plus, at a nonzero
    offset u, N rho^2 ||z_u||^2 for z_u = W_u v and v = ifft(HX): `_sums`
    forms |v|^2 once per branch, then one `einsum` contraction with the
    |W_u|^2 of all its distinct offsets, each sum formed alone, so a
    point's sum does not depend on the other points' offsets; ||HX||^2 is
    one contraction too.  A flat branch, all hops one tap, has a (trials,
    1) response h and forms no (trials, N) array: its sums are |h|^2 times
    the symbols' own, which the first flat branch forms at every flat
    branch's offsets, so flat branches share one inverse transform.  Every
    branch then adds its powers to each point in branch order, with
    overflow ignored: the engine only multiplies, squares, sums and
    transforms, so an overflow reaches the branch's powers as inf, or NaN
    (inf * 0), and a non-finite power raises `FloatingPointError` naming
    the branch, `direct` or `relays[i]`.  No power needs a derotation
    phase: a branch at H = 0 or rho = 0 adds exactly 0 and N s_b.
    """
    n, rho, s, w2 = plan.params.n_subcarriers, plan.rho, plan.noise, plan.w2
    if buffers is None:
        buffers = np.empty((2, trials, n), np.complex128)
    held, work = buffers[:, :trials]  # the symbols; each branch's transforms
    symbols = draw_symbols(plan.params, rng, trials, out=held)
    taps = [[draw_channel(profile, rng, trials) for profile in link] for link in plan.hops]
    signal, residual = powers = np.zeros((2, rho.shape[0], trials))
    shared = None  # the symbols' `_sums`, formed by the first flat branch
    # checked once per branch below; invalid too, as inf * 0 forms NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for b, index in enumerate(plan.index):
            name = f"relays[{b - 1}]" if b else "direct"  # as the config names the link
            response = branch_response(taps[b], n, out=work)  # (trials, 1) if every hop is flat
            magnitude = rho[:, b] * plan.gain[index]  # |genie gain / H|
            if response.shape[1] == 1:  # v = h x: the symbols' sums at scale |h|^2
                shared = shared or _sums(symbols, w2, plan.flat, work)
                norm, leakage = shared
                scale = np.sum(np.square(response.view(np.float64)), -1)
            else:  # v = ifft(HX) at scale 1
                spectrum = np.multiply(response, symbols, out=response)  # in `work`
                norm, leakage = _sums(spectrum, w2, plan.moving[b], work)
                scale = 1.0
            signal += magnitude[:, None] ** 2 * (scale * norm)
            residual += n * (s[:, b, None] + rho[:, b, None] ** 2 * (scale * leakage[index]))
            if not np.isfinite(powers).all():
                raise FloatingPointError(f"{name}: overflow beyond the float range "
                                         "in its signal or residual power")
    return powers
