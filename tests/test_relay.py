"""Relay gain rules and the block engine `simulate_block`: its trials
against two independent per-trial oracles (the closed-form spectrum and
the time-domain waveform) and exact cases, its warnings and preconditions,
and its bitwise invariants across points."""
import copy
import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afrelay.channel import (
    PowerDelayProfile,
    draw_channel,
    exponential_profile,
    flat_profile,
    uniform_profile,
)
from afrelay.harness import PRESETS, config_from_dict, point_inputs, sweep_offsets
from afrelay.ofdm import OfdmParams, draw_symbols
from afrelay.relay import (
    Branch,
    RelayGainConfig,
    gain_factor,
    simulate_block,
)
from conftest import one_point, oracle_powers, paper_gain
from waveform import apply_cfo, apply_channel, modulate, waveform_powers

PARAMS = OfdmParams(n_subcarriers=64, cp_len=16)
FLAT = flat_profile(1.0)
# a direct link whose taps are all zero: its genie gain is zero at every
# bin and, without noise, it adds nothing to either power
MUTED = PowerDelayProfile(np.array([0.0]))


def _tx(seed, params=PARAMS):
    rng = np.random.default_rng(seed)
    sym = draw_symbols(params, rng, 1)
    return sym, modulate(sym, params)


def _draws(seed, profiles, trials):
    """The symbols and tap realizations a block draws first from
    default_rng(seed): symbols, then one tap block per profile in order."""
    rng = np.random.default_rng(seed)
    return draw_symbols(PARAMS, rng, trials), [draw_channel(p, rng, trials) for p in profiles]


def _oracle_error(branches, seed, trials, params=PARAMS):
    """Worst relative error of a block's powers against both oracles,
    `oracle_powers` and the time-domain `waveform_powers`.  The oracles run
    without noise, and their residual gains the noise's conditional mean
    N sum_b s_b, s_b = N noise_var, that the engine adds in place of a draw."""
    n = params.n_subcarriers
    block = simulate_block(params, branches, np.random.default_rng(seed), trials)
    silent = [dataclasses.replace(br, noise_var=np.zeros_like(br.noise_var)) for br in branches]
    noise = n * sum(n * br.noise_var[0] for br in branches)
    errors = []
    for oracle in (oracle_powers, waveform_powers):
        signal, residual = oracle(params, silent, np.random.default_rng(seed), trials)
        for got, want in ((block.signal_power, signal), (block.residual_power, residual + noise)):
            errors.append(float(np.max(np.abs(got - want) / want)))
    return max(errors)
# ------------------------------------------------------------------ gain factor

def test_gain_factor_unit_case():
    cfg = RelayGainConfig(mode="general", source_power=1.0, relay_power=1.0)
    assert gain_factor(cfg, 1.0, 0.0) == pytest.approx(1.0)


def test_uniform_allocation_hand_value():
    cfg = RelayGainConfig(mode="upa", total_power=2.0)
    assert gain_factor(cfg, 1.0, 1.0) == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_uniform_allocation_converges_to_asymptote():
    cfg = RelayGainConfig(mode="upa", total_power=1e6)
    rho = gain_factor(cfg, 2.0, 0.1)
    assert abs(rho - 1.0 / np.sqrt(2.0)) < 1e-6


def test_asymptotic_mode_and_zero_power_error():
    cfg = RelayGainConfig(mode="upa_asymptotic")
    assert gain_factor(cfg, 4.0, 0.3) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        gain_factor(cfg, 0.0, 0.3)


def test_fixed_mode_returns_rho():
    assert gain_factor(RelayGainConfig(mode="fixed", rho=1.7), 5.0, 5.0) == 1.7


def test_gain_config_validation():
    with pytest.raises(ValueError):
        RelayGainConfig(mode="optimal")
    with pytest.raises(ValueError):
        RelayGainConfig(mode="fixed")
    with pytest.raises(ValueError):
        RelayGainConfig(mode="upa", total_power=0.0)
    with pytest.raises(ValueError):
        RelayGainConfig(mode="general", source_power=1.0)


# --------------------------------------------------------------------- branch

@pytest.mark.parametrize("hops", [[], [FLAT, FLAT, FLAT]], ids=["0_hops", "3_hops"])
def test_branch_needs_one_or_two_hops(hops):
    with pytest.raises(ValueError, match="one or two hops"):
        Branch(hops, [0.0], [1.0], [0.0])


# ----------------------------------------------------------------- direct link

def test_direct_link_trivial_passthrough():
    # flat fading, no offset, no noise: the received bins are h X[k]
    block = simulate_block(PARAMS, [Branch([FLAT], [0.0], [1.0], [0.0])],
                           np.random.default_rng(1), 5)
    sym, (h,) = _draws(1, [FLAT], 5)
    expected = np.abs(h[:, 0]) ** 2 * np.sum(np.abs(sym) ** 2, axis=-1)
    assert np.allclose(block.signal_power, expected, rtol=1e-12, atol=0)
    assert np.all(block.residual_power == 0)


def test_direct_link_matches_closed_form_spectrum():
    direct = Branch([uniform_profile(4, 1.0)], [-0.27], [1.0], [0.0])
    assert _oracle_error([direct], 3, 4) < 1e-9


def test_direct_link_with_unimodular_impairments_preserves_energy():
    _, tx = _tx(4)
    out = apply_cfo(apply_channel(tx, np.array([1.0]), PARAMS), 0.31, PARAMS)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(tx) ** 2), rel=1e-13)


def test_direct_link_isi_precondition():
    # 18 taps have memory 17, one beyond the prefix
    direct = Branch([uniform_profile(18)], [0.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="has 18 taps, memory 17 .*prefix length 16"):
        simulate_block(PARAMS, [direct], np.random.default_rng(0), 1)


# ---------------------------------------------------------------- relay branch

def test_relay_branch_trivial_passthrough():
    # the relay alone, flat hops, no offset, no noise: its bins are
    # rho h1 h2 X[k]
    relay = Branch([FLAT, flat_profile(4.0)], [0.0], [0.8], [0.0])
    with pytest.warns(UserWarning, match="genie gain is exactly zero"):
        block = simulate_block(PARAMS, [Branch([MUTED], [0.0], [1.0], [0.0]), relay],
                               np.random.default_rng(6), 5)
    sym, (_, h1, h2) = _draws(6, [MUTED, FLAT, flat_profile(4.0)], 5)
    expected = 0.8 ** 2 * np.abs(h1[:, 0] * h2[:, 0]) ** 2 * np.sum(np.abs(sym) ** 2, axis=-1)
    assert np.allclose(block.signal_power, expected, rtol=1e-12, atol=0)
    assert np.all(block.residual_power == 0)


def test_relay_branch_matches_closed_form_spectrum():
    direct = Branch([FLAT], [0.0], [1.0], [0.0])
    relay = Branch([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.42], [1.3], [0.0])
    assert _oracle_error([direct, relay], 8, 4) < 1e-9


def test_relay_branch_linear_in_gain():
    # doubling rho doubles every sample, bin and genie gain exactly
    relay = Branch([uniform_profile(3), uniform_profile(2)], [0.2, 0.2], [1.0, 2.0], [0.0, 0.0])
    with pytest.warns(UserWarning, match="genie gain is exactly zero"):
        block = simulate_block(PARAMS, [Branch([MUTED], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]),
                                        relay],
                               np.random.default_rng(10), 5)
    assert np.array_equal(block.signal_power[1], 4.0 * block.signal_power[0])
    assert np.array_equal(block.residual_power[1], 4.0 * block.residual_power[0])


@pytest.mark.parametrize("cfo, noise_var, message", [
    ([0.6], [0.01], r"cfo must lie in \[-0.5, 0.5\]"),
    ([np.nan], [0.01], r"cfo must lie in \[-0.5, 0.5\]"),
    ([0.1], [np.nan], "noise variances must be >= 0"),
    (0.1, [0.01], r"1-D arrays of one length, one value per point, got shapes \[\(\), "),
    ([0.1, 0.2], [0.01], r"got shapes \[\(2,\), \(1,\), \(1,\)\]"),
], ids=["offset_0.6", "nan_offset", "nan_noise", "scalar_offset", "unequal_lengths"])
def test_branch_rejects_what_the_closed_form_rejects(cfo, noise_var, message):
    # the engine checks its offsets and noise as LinkStats does, and takes
    # only (P,) fields; NaN fails both checks
    rho = [1.0] * len(noise_var)
    with pytest.raises(ValueError, match=message):
        Branch([FLAT], cfo, rho, noise_var)


def test_negative_noise_variance_rejected():
    with pytest.raises(ValueError, match="noise variances must be >= 0"):
        Branch([FLAT, FLAT], [0.0, 0.0], [1.0, 1.0], [0.01, -0.01])


def test_relay_branch_isi_precondition():
    # hops of 9 + 10 or 1 + 18 taps cascade to 18 taps, memory 17, one
    # beyond the prefix
    for taps in ([9, 10], [1, 18]):
        relay = Branch([uniform_profile(n) for n in taps], [0.0], [1.0], [0.0])
        with pytest.raises(ValueError, match="has 18 taps, memory 17 .*prefix length 16"):
            simulate_block(PARAMS, [Branch([FLAT], [0.0], [1.0], [0.0]), relay],
                           np.random.default_rng(0), 1)


# ------------------------------------------------------ memory at the prefix

@pytest.mark.parametrize("branches", [
    [Branch([uniform_profile(17)], [0.23], [1.0], [0.01])],
    [Branch([FLAT], [0.0], [1.0], [0.01]),
     Branch([uniform_profile(9), uniform_profile(9)], [0.23], [0.9], [0.02 + 0.9 ** 2 * 0.01])],
    [Branch([FLAT], [0.0], [1.0], [0.01]),
     Branch([FLAT, uniform_profile(17)], [0.23], [0.9], [0.02 + 0.9 ** 2 * 0.01])],
], ids=["direct_17", "relay_9_9", "relay_1_17"])
def test_memory_equal_to_prefix_matches_oracle(branches):
    # memory 16 = PARAMS.cp_len, the most the prefix covers; one tap more is
    # rejected by the isi_precondition tests above
    assert _oracle_error(branches, 31, 3) < 1e-9


# ------------------------------------------------------------------- combining

def test_two_ideal_branches_combine_coherently():
    # co-phased, each branch adds its coherent power and no residual
    relay = Branch([FLAT, FLAT], [0.0], [1.0], [0.0])
    block = simulate_block(PARAMS, [Branch([FLAT], [0.0], [1.0], [0.0]), relay],
                           np.random.default_rng(13), 5)
    sym, (h0, h1, h2) = _draws(13, [FLAT, FLAT, FLAT], 5)
    gains = np.abs(h0[:, 0]) ** 2 + np.abs(h1[:, 0] * h2[:, 0]) ** 2
    assert np.allclose(block.signal_power, gains * np.sum(np.abs(sym) ** 2, axis=-1),
                       rtol=1e-12, atol=0)
    assert np.all(block.residual_power == 0)


def test_combined_metric_matches_closed_form_assembly():
    # full noisy chain vs the spectra assembled from the closed form
    direct = Branch([uniform_profile(4, 1.0)], [0.17], [1.0], [0.05])
    relay = Branch([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [-0.33], [0.9],
                   [0.02 + 0.9 ** 2 * 0.05])
    assert _oracle_error([direct, relay], 15, 4) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([48, 64, 80, 96]),
       st.sampled_from(["qpsk", "qam16"]), st.integers(1, 16), st.sampled_from([None, 0.5]),
       st.booleans())
@example(0, 96, "qam16", 16, None, False)
@example(1, 48, "qpsk", 16, None, True)
@example(2, 64, "qpsk", 3, 0.5, False)
@example(3, 80, "qam16", 1, 0.5, True)
def test_block_matches_per_trial_oracle(seed, n, constellation, m, edge, at_bound):
    # every trial of a block, for any subcarrier count, constellation and
    # 1 to 16 relays with 1 to 4 taps per hop; given an edge, the offsets
    # alternate between exactly +edge and -edge; at_bound puts one branch's
    # channel memory, the sum of L - 1 over its hops, exactly at cp_len
    rng = np.random.default_rng(seed)
    params = OfdmParams(n_subcarriers=n, cp_len=8, constellation=constellation,
                        symbol_power=rng.uniform(0.5, 2.0))

    def profile():
        return uniform_profile(int(rng.integers(1, 5)), rng.uniform(0.25, 4.0))

    def offset(branch):
        return rng.uniform(-0.5, 0.5) if edge is None else edge * (-1.0) ** branch

    def relay(i):  # the relay's noise, then the destination's, as rho^2 s_Z2 + s_Z3
        hops, cfo, rho = [profile(), profile()], offset(i + 1), rng.uniform(0.3, 2.0)
        return Branch(hops, [cfo], [rho], [rng.uniform(0.0, 0.1) * rho ** 2
                                           + rng.uniform(0.0, 0.1)])

    branches = [Branch([profile()], [offset(0)], [1.0], [rng.uniform(0.0, 0.1)])] + [
        relay(i) for i in range(m)]
    if at_bound:
        b = int(rng.integers(0, m + 1))
        first = int(rng.integers(1, params.cp_len + 2))
        taps = [params.cp_len + 1] if b == 0 else [first, params.cp_len + 2 - first]
        branches[b] = dataclasses.replace(
            branches[b], hops=[uniform_profile(k, rng.uniform(0.25, 4.0)) for k in taps])
    assert _oracle_error(branches, [seed, 1], 2, params) < 1e-9


def test_combining_is_linear_in_branches():
    # a relay at rho = 0 adds nothing, so with the direct link muted the
    # two-relay point is exactly the sum of the one-relay points
    branches = [
        Branch([MUTED], [0.1] * 3, [1.0] * 3, [0.0] * 3),
        Branch([uniform_profile(3), uniform_profile(2)], [-0.2] * 3, [1.1, 0.0, 1.1], [0.0] * 3),
        Branch([uniform_profile(2), FLAT], [0.3] * 3, [0.0, 0.9, 0.9], [0.0] * 3),
    ]
    with pytest.warns(UserWarning, match="genie gain is exactly zero"):
        block = simulate_block(PARAMS, branches, np.random.default_rng(18), 5)
    for power in (block.signal_power, block.residual_power):
        assert np.array_equal(power[2], power[0] + power[1])


def test_zero_genie_gain_is_flagged():
    direct = Branch([MUTED], [0.1], [1.0], [0.01])
    relay = Branch([FLAT, FLAT], [0.2], [1.0], [0.02])
    with pytest.warns(UserWarning, match=r"zero at bins \[0, 1, 2, "):
        block = simulate_block(PARAMS, [direct, relay], np.random.default_rng(19), 3)
    assert np.isfinite(block.signal_power).all() and np.isfinite(block.residual_power).all()
    # a relay point at rho = 0 has a zero genie gain at every bin
    silent = Branch([FLAT, FLAT], [0.2, 0.2], [1.0, 0.0], [0.02, 0.01])
    with pytest.warns(UserWarning, match=r"zero at bins \[0, 1, 2, "):
        simulate_block(PARAMS, [Branch([FLAT], [0.1, 0.1], [1.0, 1.0], [0.01, 0.01]), silent],
                       np.random.default_rng(19), 3)


# --------------------------------------------------------------- decomposition

def test_no_offset_no_noise_leaves_zero_residual():
    branches = [Branch([uniform_profile(4, 1.0)], [0.0], [1.0], [0.0]),
                Branch([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.0], [1.0], [0.0])]
    outcome = one_point(simulate_block(PARAMS, branches, np.random.default_rng(22), 1))
    assert outcome.residual_power[0] == 0


def test_scaling_symbols_by_two_quadruples_signal_power():
    # symbol_power 4 doubles every symbol, sample and bin exactly
    direct = Branch([uniform_profile(4, 1.0)], [0.1], [1.0], [0.0])
    base = simulate_block(PARAMS, [direct], np.random.default_rng(24), 5)
    scaled = simulate_block(OfdmParams(n_subcarriers=64, cp_len=16, symbol_power=4.0),
                            [direct], np.random.default_rng(24), 5)
    assert np.array_equal(scaled.signal_power, 4.0 * base.signal_power)
    assert np.array_equal(scaled.residual_power, 4.0 * base.residual_power)


def test_noise_only_signal_power_converges_to_coherent_power():
    # with zero offsets the per-bin signal power must average to
    # direct_power + rho^2 * hop1_power * hop2_power (symbol power 1)
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    branches = [Branch([flat_profile(1.0)], [0.0], [1.0], [0.1 / 64]),
                Branch([flat_profile(1.0), flat_profile(4.0)], [0.0], [1.0], [0.2 / 64])]
    total = 0.0
    trials = 4000
    for b in range(10):
        rng = np.random.default_rng([99, b])
        total += np.sum(simulate_block(params, branches, rng, trials // 10).signal_power)
    per_bin = total / (trials * 64)
    assert per_bin == pytest.approx(1.0 + 4.0, rel=0.05)


def _zero_offset_inputs():
    """fig3_flat with two relays of unequal noise and gain rules, at zero
    offsets: its LinkStats and simulator branches at two noise scales."""
    raw = copy.deepcopy(PRESETS["fig3_flat"])
    raw["relays"][0].update(relay_noise_var=0.3, dest_noise_var=0.05,
                            gain={"mode": "fixed", "rho": 1.7})
    raw["relays"].append(dict(raw["relays"][0], relay_noise_var=0.02, dest_noise_var=0.2,
                              gain={"mode": "general", "source_power": 1.0, "relay_power": 3.0}))
    raw["sweep"]["grid"] = [0.0]
    cfg = config_from_dict(raw)
    stats, branches = point_inputs(cfg, *sweep_offsets(cfg))
    assert not np.any(stats.cfos) and np.all([br.rho != 1.0 for br in branches[1:]])
    return cfg, stats, branches


def test_noise_only_residual_converges_to_the_closed_form_noise():
    # point_inputs alone decides that a relay's noise arrives amplified by
    # its gain, and the per-sample variance s_b / N; with zero offsets the
    # waveform oracle's residual per bin, from drawn noise, must average to
    # sum_b s_b of the same points' LinkStats, the noise the closed form sees
    cfg, stats, branches = _zero_offset_inputs()
    trials = 4000
    for p, expected in enumerate(np.sum(stats.noise_vars, axis=-1)):
        total = 0.0
        for b in range(10):
            rng = np.random.default_rng([99, b])
            total += np.sum(waveform_powers(cfg.ofdm, _one_point(branches, p), rng,
                                            trials // 10)[1])
        assert total / (trials * cfg.ofdm.n_subcarriers) == pytest.approx(expected, rel=0.01)


def test_zero_offset_residual_is_the_noise_mean():
    # the engine draws no noise: at zero offsets each trial's residual is
    # exactly N sum_b s_b, s_b = N noise_var, added in branch order
    cfg, stats, branches = _zero_offset_inputs()
    n = cfg.ofdm.n_subcarriers
    outcome = simulate_block(cfg.ofdm, branches, np.random.default_rng(3), 5)
    expected = 0.0
    for br in branches:
        expected = expected + n * (n * br.noise_var)
    assert np.array_equal(outcome.residual_power, np.repeat(expected[:, None], 5, axis=1))
    assert expected == pytest.approx(n * np.sum(stats.noise_vars, axis=-1), rel=1e-15)


# ----------------------------------------------------------------- whole trial

def test_trial_is_deterministic_given_the_stream():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    branches = [Branch([uniform_profile(4, 1.0)], [0.1], [1.0], [0.001]),
                Branch([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.2], [0.8],
                       [(1 + 0.8 ** 2) * 0.001])]
    a = simulate_block(params, branches, np.random.default_rng([7, 1]), 1)
    b = simulate_block(params, branches, np.random.default_rng([7, 1]), 1)
    assert np.array_equal(a.signal_power, b.signal_power)
    assert np.array_equal(a.residual_power, b.residual_power)


def test_trial_supports_multiple_relay_branches():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    branches = [
        Branch([flat_profile(1.0)], [0.05], [1.0], [0.001]),
        Branch([flat_profile(1.0), flat_profile(2.0)], [0.1], [1.0], [0.002]),
        Branch([uniform_profile(2, 1.0), uniform_profile(2, 1.0)], [-0.2], [0.7],
               [(1 + 0.7 ** 2) * 0.001]),
    ]
    outcome = one_point(simulate_block(params, branches, np.random.default_rng(5), 1))
    assert outcome.signal_power[0] > 0 and outcome.residual_power[0] > 0


# ----------------------------------------------------------------- block engine

GOLDEN_BRANCHES = {
    "selective_one_relay": [
        Branch([uniform_profile(4, 1.0)], [0.1], [1.0], [0.1 / 64]),
        Branch([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.2], [0.8],
               [(1 + 0.8 ** 2) * 0.1 / 64]),
    ],
    "two_relays": [
        Branch([flat_profile(1.0)], [0.05], [1.0], [0.001]),
        Branch([flat_profile(1.0), flat_profile(2.0)], [0.1], [1.0], [0.002]),
        Branch([uniform_profile(2, 1.0), uniform_profile(2, 1.0)], [-0.2], [0.7],
               [(1 + 0.7 ** 2) * 0.001]),
    ],
}

# (signal_power, residual_power) of one trial on default_rng([20260808, seed]).
# The signals were recorded from the per-trial engine that simulate_block
# replaced (one np.convolve and one transform call per trial and stage);
# symbols and taps are drawn first, so no change to the noise moves them.
# The residuals were recorded from `waveform.waveform_powers` run without
# noise, plus the noise's conditional mean N sum_b s_b.
GOLDEN_POWERS = {
    ("selective_one_relay", 0): (266.44075474629824, 47.863871049220904),
    ("selective_one_relay", 1): (61.392447978054804, 22.506947647178574),
    ("selective_one_relay", 2): (143.529427285345, 30.906972838971434),
    ("two_relays", 0): (107.39739482555294, 26.161996476953156),
    ("two_relays", 1): (8.103038144888485, 19.189574153764482),
    ("two_relays", 2): (145.07796492214442, 23.248632738617445),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_POWERS))
def test_one_trial_block_reproduces_per_trial_engine(name, seed):
    rng = np.random.default_rng([20260808, seed])
    block = one_point(simulate_block(PARAMS, GOLDEN_BRANCHES[name], rng, 1))
    signal, residual = GOLDEN_POWERS[(name, seed)]
    assert block.signal_power.shape == block.residual_power.shape == (1,)
    assert block.signal_power[0] == pytest.approx(signal, rel=1e-12)
    assert block.residual_power[0] == pytest.approx(residual, rel=1e-12)


# ----------------------------------------------------------- points of a block

def _point_branches(branches, cfos, scales, gains=1.0):
    """P-point branches from one-point ones: offsets (P, M + 1), and each
    point's noise variance scaled by its entry of `scales`, its relay
    gains by its entry of `gains` (the direct link keeps gain 1)."""
    cfos, scales = np.asarray(cfos), np.asarray(scales)
    gains = np.broadcast_to(gains, scales.shape)
    return [Branch(br.hops, cfos[:, b], br.rho * (gains if b else np.ones(scales.shape)),
                   br.noise_var * scales)
            for b, br in enumerate(branches)]


def _one_point(branches, p):
    return [Branch(br.hops, br.cfo[p:p + 1], br.rho[p:p + 1], br.noise_var[p:p + 1])
            for br in branches]


POINT_BRANCHES = {
    "flat": [
        Branch([flat_profile(1.0)], [0.0], [1.0], [0.1 / 64]),
        Branch([flat_profile(1.0), flat_profile(4.0)], [0.0], [0.8], [(1 + 0.8 ** 2) * 0.1 / 64]),
    ],
    "selective_two_relays": [
        Branch([uniform_profile(4, 1.0)], [0.0], [1.0], [0.1 / 64]),
        Branch([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.0], [0.8],
               [(1 + 0.8 ** 2) * 0.1 / 64]),
        Branch([uniform_profile(2, 1.0), uniform_profile(3, 2.0)], [0.0], [1.3],
               [(0.2 + 1.3 ** 2 * 0.05) / 64]),
    ],
}


POINT_CASES = [pytest.param(name, trials, 4, id=f"{name}-{trials}")
               for name in sorted(POINT_BRANCHES) for trials in (1, 7, 357)]
# 40 points of 7 trials: many distinct offsets per branch, each reduced once
POINT_CASES.append(pytest.param("selective_two_relays", 7, 40, id="selective_two_relays-7-40"))


@pytest.mark.parametrize("name, trials, count", POINT_CASES)
def test_block_of_points_equals_one_point_blocks(name, trials, count):
    branches = POINT_BRANCHES[name]
    relays = len(branches) - 1
    cfos = [[0.0] + [0.0] * relays, [0.1, -0.2, 0.3][:relays + 1],
            [-0.45] + [0.45] * relays, [0.2] + [0.2] * relays]
    scales = [1.0, 1.0, 0.1, 0.0]  # the fourth point is noise-free
    gains = [1.0, 1.2, 0.7, 1.0]
    rng = np.random.default_rng(count)
    cfos += rng.uniform(-0.5, 0.5, (count - 4, relays + 1)).tolist()
    scales += rng.choice([1.0, 0.1, 0.0], count - 4).tolist()
    gains += rng.uniform(0.5, 1.5, count - 4).tolist()
    points = _point_branches(branches, cfos, scales, gains)
    block = simulate_block(PARAMS, points, np.random.default_rng([5, 3]), trials)
    assert block.signal_power.shape == block.residual_power.shape == (count, trials)
    for p in range(count):
        alone = one_point(simulate_block(PARAMS, _one_point(points, p),
                                         np.random.default_rng([5, 3]), trials))
        assert np.array_equal(block.signal_power[p], alone.signal_power)
        assert np.array_equal(block.residual_power[p], alone.residual_power)


def test_block_of_points_consumes_the_stream_of_one_point():
    # every point shares the block's draws: the stream ends where one
    # point's block leaves it
    points = _point_branches(POINT_BRANCHES["selective_two_relays"], np.zeros((3, 3)),
                             [1.0, 0.5, 0.1])
    shared, alone = np.random.default_rng(9), np.random.default_rng(9)
    simulate_block(PARAMS, points, shared, 11)
    simulate_block(PARAMS, _one_point(points, 2), alone, 11)
    assert shared.bit_generator.state == alone.bit_generator.state


def test_block_draws_the_symbols_and_taps_only():
    # the engine integrates the noise out: at any noise variance the stream
    # ends after the symbols and each branch's taps, hop by hop
    points = _point_branches(POINT_BRANCHES["selective_two_relays"],
                             [[0.0, 0.3, -0.2], [0.1, 0.0, 0.5]], [1.0, 0.0])
    engine, replay = np.random.default_rng(9), np.random.default_rng(9)
    simulate_block(PARAMS, points, engine, 11)
    draw_symbols(PARAMS, replay, 11)
    for br in points:
        for profile in br.hops:
            draw_channel(profile, replay, 11)
    assert engine.bit_generator.state == replay.bit_generator.state


def test_transforms_per_block_do_not_depend_on_the_point_count(monkeypatch):
    # every transform runs once per block and branch, none per point, and a
    # branch at zero offset on every point runs no inverse transform
    calls = []
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, lambda *a, _f=getattr(np.fft, name), **k:
                            calls.append(1) or _f(*a, **k))
    for direct, inverses in ((1.0, 3), (0.0, 2)):
        counts = []
        for count in (1, 40):
            cfos = np.linspace(-0.5, 0.5, count)[:, None] * [direct, -1.0, 0.5]
            calls.clear()
            simulate_block(PARAMS, _point_branches(POINT_BRANCHES["selective_two_relays"], cfos,
                                                   np.ones(count)),
                           np.random.default_rng(4), 7)
            counts.append(len(calls))
        assert counts[0] == counts[1] == 5 + inverses  # hop responses, then the inverses


def test_noise_free_zero_offset_point_has_zero_residual_beside_noisy_points():
    # the infinity sentinel reports such a point, whose residual is exactly 0
    cfos = [[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [0.0, 0.0, 0.0], [0.5, -0.5, 0.5]]
    points = _point_branches(POINT_BRANCHES["selective_two_relays"], cfos, [0.0, 1.0, 1.0, 0.1])
    block = simulate_block(PARAMS, points, np.random.default_rng(12), 102)
    assert np.all(block.residual_power[0] == 0)
    assert np.all(block.residual_power[1:] > 1e-6 * block.signal_power[1:])


# ------------------------------------------------------ per-branch moments

# Each branch alone has exact per-term expectations at offset eps:
#   E[signal]/N = f^2(eps) a_b  and  E[residual/N - s_b] = (1 - f^2(eps)) a_b,
# a_b = rho^2 prod P_hop s_X, the leakage term being the CFO's cost.  Over
# the 3 x 2 cases below, 5 signal and 4 leakage means (the leakage at eps = 0
# is exactly 0) give 54 z-scores; each is bounded two-sided at a 1e-4 / 54
# false-failure chance (Bonferroni, as c3's calibration), so a correct
# engine fails the test with probability at most 1e-4.
MOMENT_OFFSETS = [0.0, 0.1, 0.3, -0.49, 0.5]
MOMENT_Z_BOUND = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * 54))
MOMENT_HOPS = {
    "one_hop": (1.0, [exponential_profile(3, 1.3)]),
    "two_hops": (0.8, [uniform_profile(4, 1.0), uniform_profile(3, 4.0)]),
}


@pytest.mark.parametrize("hops", sorted(MOMENT_HOPS))
@pytest.mark.parametrize("n", [64, 60, 127])
def test_each_branch_term_has_its_exact_expectation(n, hops):
    params = OfdmParams(n_subcarriers=n, cp_len=8, constellation="qam16", symbol_power=1.5)
    rho, profiles = MOMENT_HOPS[hops]
    points = len(MOMENT_OFFSETS)
    branch = Branch(profiles, MOMENT_OFFSETS, [rho] * points, [0.03] * points)
    blocks = [simulate_block(params, [branch], np.random.default_rng([61, b]), 204)
              for b in range(10)]
    signal = np.concatenate([block.signal_power for block in blocks], axis=-1) / n
    noise = n * (n * branch.noise_var[0])  # the residual's noise part, N s_b
    leakage = (np.concatenate([block.residual_power for block in blocks], axis=-1) - noise) / n
    a = rho ** 2 * math.prod(p.total_power for p in profiles) * params.symbol_power
    assert np.all(leakage[0] == 0)
    for eps, sig, leak in zip(MOMENT_OFFSETS, signal, leakage):
        f2 = paper_gain(eps, n) ** 2
        terms = [(sig, f2 * a)] + ([(leak, (1.0 - f2) * a)] if eps else [])
        for values, expected in terms:
            z = (values.mean() - expected) / (values.std(ddof=1) / math.sqrt(values.size))
            assert abs(z) <= MOMENT_Z_BOUND, f"eps {eps}: mean {values.mean()} vs {expected}"
