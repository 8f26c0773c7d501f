"""Relay gain rules and the block engine `simulate_block`: its trials
against an independent per-trial oracle and exact cases, its warnings and
preconditions, and its bitwise invariants across points."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afrelay.channel import (
    PowerDelayProfile,
    apply_cfo,
    apply_channel,
    draw_channel,
    flat_profile,
    uniform_profile,
)
from afrelay.ofdm import OfdmParams, draw_symbols, modulate
from afrelay.relay import (
    DirectPath,
    RelayGainConfig,
    RelayPath,
    gain_factor,
    simulate_block,
)
from conftest import oracle_powers

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


def _oracle_error(direct, relays, seed, trials, params=PARAMS):
    """Worst relative error of a block's powers against `oracle_powers`."""
    block = simulate_block(params, direct, relays, np.random.default_rng(seed), trials)
    reference = oracle_powers(params, direct, relays, np.random.default_rng(seed), trials)
    return max(
        float(np.max(np.abs(got - want) / want))
        for got, want in zip((block.signal_power, block.residual_power), reference)
    )
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


# ----------------------------------------------------------------- direct link

def test_direct_link_trivial_passthrough():
    # flat fading, no offset, no noise: the received bins are h X[k]
    block = simulate_block(PARAMS, DirectPath(FLAT, 0.0, 0.0), [], np.random.default_rng(1), 5)
    sym, (h,) = _draws(1, [FLAT], 5)
    expected = np.abs(h[:, 0]) ** 2 * np.sum(np.abs(sym) ** 2, axis=-1)
    assert np.allclose(block.signal_power, expected, rtol=1e-12, atol=0)
    assert np.all(block.residual_power < 1e-24 * block.signal_power)


def test_direct_link_matches_closed_form_spectrum():
    direct = DirectPath(uniform_profile(4, 1.0), -0.27, 0.0)
    assert _oracle_error(direct, [], 3, 4) < 1e-9


def test_direct_link_with_unimodular_impairments_preserves_energy():
    _, tx = _tx(4)
    out = apply_cfo(apply_channel(tx, np.array([1.0]), PARAMS), 0.31, PARAMS)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(tx) ** 2), rel=1e-13)


def test_direct_link_isi_precondition():
    direct = DirectPath(uniform_profile(17), 0.0, 0.0)
    with pytest.raises(ValueError, match="17 taps.*16 samples"):
        simulate_block(PARAMS, direct, [], np.random.default_rng(0), 1)


# ---------------------------------------------------------------- relay branch

def test_relay_branch_trivial_passthrough():
    # the relay alone, flat hops, no offset, no noise: its bins are
    # rho h1 h2 X[k]
    relay = RelayPath(FLAT, flat_profile(4.0), 0.0, 0.8, 0.0, 0.0)
    with pytest.warns(UserWarning, match="genie gain is exactly zero"):
        block = simulate_block(PARAMS, DirectPath(MUTED, 0.0, 0.0), [relay],
                               np.random.default_rng(6), 5)
    sym, (_, h1, h2) = _draws(6, [MUTED, FLAT, flat_profile(4.0)], 5)
    expected = 0.8 ** 2 * np.abs(h1[:, 0] * h2[:, 0]) ** 2 * np.sum(np.abs(sym) ** 2, axis=-1)
    assert np.allclose(block.signal_power, expected, rtol=1e-12, atol=0)
    assert np.all(block.residual_power < 1e-24 * block.signal_power)


def test_relay_branch_matches_closed_form_spectrum():
    direct = DirectPath(FLAT, 0.0, 0.0)
    relay = RelayPath(uniform_profile(4, 1.0), uniform_profile(4, 4.0), 0.42, 1.3, 0.0, 0.0)
    assert _oracle_error(direct, [relay], 8, 4) < 1e-9


def test_relay_branch_linear_in_gain():
    # doubling rho doubles every sample, bin and genie gain exactly
    relay = RelayPath(uniform_profile(3), uniform_profile(2), 0.2, [1.0, 2.0], 0.0, 0.0)
    with pytest.warns(UserWarning, match="genie gain is exactly zero"):
        block = simulate_block(PARAMS, DirectPath(MUTED, 0.0, 0.0), [relay],
                               np.random.default_rng(10), 5)
    assert np.array_equal(block.signal_power[1], 4.0 * block.signal_power[0])
    assert np.array_equal(block.residual_power[1], 4.0 * block.residual_power[0])


def test_relay_branch_isi_precondition():
    relay = RelayPath(uniform_profile(9), uniform_profile(8), 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="9\\+8 taps.*16 samples"):
        simulate_block(PARAMS, DirectPath(FLAT, 0.0, 0.0), [relay], np.random.default_rng(0), 1)


# ------------------------------------------------------------------- combining

def test_two_ideal_branches_combine_coherently():
    # co-phased, each branch adds its coherent power and no residual
    relay = RelayPath(FLAT, FLAT, 0.0, 1.0, 0.0, 0.0)
    block = simulate_block(PARAMS, DirectPath(FLAT, 0.0, 0.0), [relay],
                           np.random.default_rng(13), 5)
    sym, (h0, h1, h2) = _draws(13, [FLAT, FLAT, FLAT], 5)
    gains = np.abs(h0[:, 0]) ** 2 + np.abs(h1[:, 0] * h2[:, 0]) ** 2
    assert np.allclose(block.signal_power, gains * np.sum(np.abs(sym) ** 2, axis=-1),
                       rtol=1e-12, atol=0)
    assert np.all(block.residual_power < 1e-24 * block.signal_power)


def test_combined_metric_matches_closed_form_assembly():
    # full noisy chain vs the spectra assembled from the closed form
    direct = DirectPath(uniform_profile(4, 1.0), 0.17, 0.05)
    relay = RelayPath(uniform_profile(4, 1.0), uniform_profile(4, 4.0), -0.33, 0.9, 0.05, 0.02)
    assert _oracle_error(direct, [relay], 15, 4) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([48, 64, 80, 96]),
       st.sampled_from(["qpsk", "qam16"]), st.integers(1, 16))
@example(0, 96, "qam16", 16)
@example(1, 48, "qpsk", 16)
def test_block_matches_per_trial_oracle(seed, n, constellation, m):
    # every trial of a block, for any subcarrier count, constellation and
    # 1 to 16 relays with 1 to 4 taps per hop
    rng = np.random.default_rng(seed)
    params = OfdmParams(n_subcarriers=n, cp_len=8, constellation=constellation,
                        symbol_power=rng.uniform(0.5, 2.0))

    def profile():
        return uniform_profile(int(rng.integers(1, 5)), rng.uniform(0.25, 4.0))

    direct = DirectPath(profile(), rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.1))
    relays = [
        RelayPath(profile(), profile(), rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2.0),
                  rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1))
        for _ in range(m)
    ]
    assert _oracle_error(direct, relays, [seed, 1], 2, params) < 1e-9


def test_combining_is_linear_in_branches():
    # a relay at rho = 0 adds nothing, so with the direct link muted the
    # two-relay point is exactly the sum of the one-relay points
    relays = [
        RelayPath(uniform_profile(3), uniform_profile(2), -0.2, [1.1, 0.0, 1.1], 0.0, 0.0),
        RelayPath(uniform_profile(2), FLAT, 0.3, [0.0, 0.9, 0.9], 0.0, 0.0),
    ]
    with pytest.warns(UserWarning, match="genie gain is exactly zero"):
        block = simulate_block(PARAMS, DirectPath(MUTED, 0.1, 0.0), relays,
                               np.random.default_rng(18), 5)
    for power in (block.signal_power, block.residual_power):
        assert np.array_equal(power[2], power[0] + power[1])


def test_zero_genie_gain_is_flagged():
    direct = DirectPath(MUTED, 0.1, 0.01)
    relay = RelayPath(FLAT, FLAT, 0.2, 1.0, 0.01, 0.01)
    with pytest.warns(UserWarning, match=r"zero at bins \[0, 1, 2, "):
        block = simulate_block(PARAMS, direct, [relay], np.random.default_rng(19), 3)
    assert np.isfinite(block.signal_power).all() and np.isfinite(block.residual_power).all()


# --------------------------------------------------------------- decomposition

def test_no_offset_no_noise_leaves_zero_residual():
    direct = DirectPath(uniform_profile(4, 1.0), 0.0, 0.0)
    relays = [RelayPath(uniform_profile(4, 1.0), uniform_profile(4, 4.0), 0.0, 1.0, 0.0, 0.0)]
    outcome = simulate_block(PARAMS, direct, relays, np.random.default_rng(22), 1)
    assert outcome.residual_power[0] < 1e-18


def test_scaling_symbols_by_two_quadruples_signal_power():
    # symbol_power 4 doubles every symbol, sample and bin exactly
    direct = DirectPath(uniform_profile(4, 1.0), 0.1, 0.0)
    base = simulate_block(PARAMS, direct, [], np.random.default_rng(24), 5)
    scaled = simulate_block(OfdmParams(n_subcarriers=64, cp_len=16, symbol_power=4.0),
                            direct, [], np.random.default_rng(24), 5)
    assert np.array_equal(scaled.signal_power, 4.0 * base.signal_power)
    assert np.array_equal(scaled.residual_power, 4.0 * base.residual_power)


def test_noise_only_signal_power_converges_to_coherent_power():
    # with zero offsets the per-bin signal power must average to
    # direct_power + rho^2 * hop1_power * hop2_power (symbol power 1)
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    direct = DirectPath(flat_profile(1.0), 0.0, 0.1 / 64)
    relays = [RelayPath(flat_profile(1.0), flat_profile(4.0), 0.0, 1.0, 0.1 / 64, 0.1 / 64)]
    total = 0.0
    trials = 4000
    for b in range(10):
        rng = np.random.default_rng([99, b])
        total += np.sum(simulate_block(params, direct, relays, rng, trials // 10).signal_power)
    per_bin = total / (trials * 64)
    assert per_bin == pytest.approx(1.0 + 4.0, rel=0.05)


# ----------------------------------------------------------------- whole trial

def test_trial_is_deterministic_given_the_stream():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    direct = DirectPath(uniform_profile(4, 1.0), 0.1, 0.001)
    relays = [RelayPath(uniform_profile(4, 1.0), uniform_profile(4, 4.0), 0.2, 0.8, 0.001, 0.001)]
    a = simulate_block(params, direct, relays, np.random.default_rng([7, 1]), 1)
    b = simulate_block(params, direct, relays, np.random.default_rng([7, 1]), 1)
    assert np.array_equal(a.signal_power, b.signal_power)
    assert np.array_equal(a.residual_power, b.residual_power)


def test_trial_supports_multiple_relay_branches():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    direct = DirectPath(flat_profile(1.0), 0.05, 0.001)
    relays = [
        RelayPath(flat_profile(1.0), flat_profile(2.0), 0.1, 1.0, 0.001, 0.001),
        RelayPath(uniform_profile(2, 1.0), uniform_profile(2, 1.0), -0.2, 0.7, 0.001, 0.001),
    ]
    outcome = simulate_block(params, direct, relays, np.random.default_rng(5), 1)
    assert outcome.signal_power[0] > 0 and outcome.residual_power[0] > 0


# ----------------------------------------------------------------- block engine

GOLDEN_PATHS = {
    "selective_one_relay": (
        DirectPath(uniform_profile(4, 1.0), 0.1, 0.1 / 64),
        [RelayPath(uniform_profile(4, 1.0), uniform_profile(4, 4.0), 0.2, 0.8,
                   0.1 / 64, 0.1 / 64)],
    ),
    "two_relays": (
        DirectPath(flat_profile(1.0), 0.05, 0.001),
        [
            RelayPath(flat_profile(1.0), flat_profile(2.0), 0.1, 1.0, 0.001, 0.001),
            RelayPath(uniform_profile(2, 1.0), uniform_profile(2, 1.0), -0.2, 0.7, 0.001, 0.001),
        ],
    ),
}

# (signal_power, residual_power) of one trial on default_rng([20260808, seed]),
# recorded from the per-trial engine that simulate_block replaced (one
# np.convolve and one transform call per trial and stage).
GOLDEN_POWERS = {
    ("selective_one_relay", 0): (266.44075474629824, 43.11661249662061),
    ("selective_one_relay", 1): (61.392447978054804, 23.846206062344955),
    ("selective_one_relay", 2): (143.529427285345, 36.19525752737174),
    ("two_relays", 0): (107.39739482555294, 25.258647734657686),
    ("two_relays", 1): (8.103038144888485, 19.366449268299323),
    ("two_relays", 2): (145.07796492214442, 25.606398094585796),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_POWERS))
def test_one_trial_block_reproduces_per_trial_engine(name, seed):
    direct, relays = GOLDEN_PATHS[name]
    rng = np.random.default_rng([20260808, seed])
    block = simulate_block(PARAMS, direct, relays, rng, 1)
    signal, residual = GOLDEN_POWERS[(name, seed)]
    assert block.signal_power.shape == block.residual_power.shape == (1,)
    assert block.signal_power[0] == pytest.approx(signal, rel=1e-12)
    assert block.residual_power[0] == pytest.approx(residual, rel=1e-12)


# ----------------------------------------------------------- points of a block

def _point_paths(direct, relays, cfos, scales, gains=1.0):
    """P-point paths from one-point ones: offsets (P, M + 1), and each
    point's noise variances scaled by its entry of `scales`, its relay
    gains by its entry of `gains`."""
    cfos, scales = np.asarray(cfos), np.asarray(scales)
    gains = np.broadcast_to(gains, scales.shape)
    return (
        DirectPath(direct.profile, cfos[:, 0], direct.noise_var * scales),
        [RelayPath(r.hop1_profile, r.hop2_profile, cfos[:, i + 1], r.rho * gains,
                   r.relay_noise_var * scales, r.dest_noise_var * scales)
         for i, r in enumerate(relays)],
    )


def _one_point(direct, relays, p):
    return (
        DirectPath(direct.profile, direct.cfo[p].item(), direct.noise_var[p].item()),
        [RelayPath(r.hop1_profile, r.hop2_profile, r.cfo[p].item(), r.rho[p].item(),
                   r.relay_noise_var[p].item(), r.dest_noise_var[p].item()) for r in relays],
    )


POINT_PATHS = {
    "flat": (
        DirectPath(flat_profile(1.0), 0.0, 0.1 / 64),
        [RelayPath(flat_profile(1.0), flat_profile(4.0), 0.0, 0.8, 0.1 / 64, 0.1 / 64)],
    ),
    "selective_two_relays": (
        DirectPath(uniform_profile(4, 1.0), 0.0, 0.1 / 64),
        [
            RelayPath(uniform_profile(4, 1.0), uniform_profile(4, 4.0), 0.0, 0.8,
                      0.1 / 64, 0.1 / 64),
            RelayPath(uniform_profile(2, 1.0), uniform_profile(3, 2.0), 0.0, 1.3,
                      0.05 / 64, 0.2 / 64),
        ],
    ),
}


@pytest.mark.parametrize("trials", [1, 7, 357])
@pytest.mark.parametrize("name", sorted(POINT_PATHS))
def test_block_of_points_equals_one_point_blocks(name, trials):
    direct, relays = POINT_PATHS[name]
    cfos = [[0.0] + [0.0] * len(relays), [0.1, -0.2, 0.3][:len(relays) + 1],
            [-0.45] + [0.45] * len(relays), [0.2] + [0.2] * len(relays)]
    scales = [1.0, 1.0, 0.1, 0.0]  # the last point is noise-free
    points = _point_paths(direct, relays, cfos, scales, gains=[1.0, 1.2, 0.7, 1.0])
    block = simulate_block(PARAMS, *points, np.random.default_rng([5, 3]), trials)
    assert block.signal_power.shape == block.residual_power.shape == (4, trials)
    for p in range(4):
        alone = simulate_block(PARAMS, *_one_point(*points, p), np.random.default_rng([5, 3]),
                               trials)
        assert np.array_equal(block.signal_power[p], alone.signal_power)
        assert np.array_equal(block.residual_power[p], alone.residual_power)


def test_block_of_points_consumes_the_stream_of_one_point():
    # every point shares the block's draws: the stream ends where one
    # point's block leaves it
    direct, relays = POINT_PATHS["selective_two_relays"]
    points = _point_paths(direct, relays, np.zeros((3, 3)), [1.0, 0.5, 0.1])
    shared, alone = np.random.default_rng(9), np.random.default_rng(9)
    simulate_block(PARAMS, *points, shared, 11)
    simulate_block(PARAMS, *_one_point(*points, 2), alone, 11)
    assert shared.bit_generator.state == alone.bit_generator.state
