"""Relay gain rules, branch simulation against the closed-form spectrum
construction, combining, and the trial decomposition."""
import numpy as np
import pytest

from afrelay.channel import flat_profile, frequency_response, uniform_profile
from afrelay.ofdm import OfdmParams, draw_symbols, modulate
from afrelay.relay import (
    DirectPath,
    RelayGainConfig,
    RelayPath,
    branch_gain,
    decompose_trial,
    derotate_branch,
    gain_factor,
    simulate_block,
    simulate_direct,
    simulate_relay_branch,
    simulate_trial,
)
from conftest import cgauss, ici_reference

PARAMS = OfdmParams(n_subcarriers=64, cp_len=16)


def _tx(seed, params=PARAMS):
    rng = np.random.default_rng(seed)
    sym = draw_symbols(params, rng, 1)
    return sym, modulate(sym, params)


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
    _, tx = _tx(1)
    out = simulate_direct(tx, np.array([1.0]), 0.0, 0.0, np.random.default_rng(0), PARAMS)
    assert np.allclose(out, tx, atol=1e-15)


def test_direct_link_matches_closed_form_spectrum():
    sym, tx = _tx(2)
    rng = np.random.default_rng(3)
    taps = cgauss(rng, 4, var=1.0 / 4)
    eps = -0.27
    out = simulate_direct(tx, taps, eps, 0.0, rng, PARAMS)
    spectrum = np.fft.fft(out[0, 16:])
    reference = ici_reference(sym[0], frequency_response(taps, 64), eps)
    assert np.max(np.abs(spectrum - reference)) / np.max(np.abs(reference)) < 1e-9


def test_direct_link_with_unimodular_impairments_preserves_energy():
    _, tx = _tx(4)
    out = simulate_direct(tx, np.array([1.0]), 0.31, 0.0, np.random.default_rng(0), PARAMS)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(tx) ** 2), rel=1e-13)


def test_direct_link_isi_precondition():
    _, tx = _tx(5)
    with pytest.raises(ValueError, match="17 taps.*16 samples"):
        simulate_direct(tx, np.ones(17), 0.0, 0.0, np.random.default_rng(0), PARAMS)


# ---------------------------------------------------------------- relay branch

def _relay(tx, h1, h2, rng, cfo=0.0, rho=1.0, relay_nv=0.0, dest_nv=0.0):
    """simulate_relay_branch with the given realizations; the path's
    profiles only record the tap counts."""
    path = RelayPath(
        uniform_profile(np.shape(h1)[-1]), uniform_profile(np.shape(h2)[-1]),
        cfo, rho, relay_nv, dest_nv,
    )
    return simulate_relay_branch(tx, h1, h2, path, rng, PARAMS)


def test_relay_branch_trivial_passthrough():
    _, tx = _tx(6)
    out = _relay(tx, np.array([1.0]), np.array([1.0]), np.random.default_rng(0))
    assert np.allclose(out, tx, atol=1e-15)


def test_relay_branch_matches_closed_form_spectrum():
    sym, tx = _tx(7)
    rng = np.random.default_rng(8)
    h1 = cgauss(rng, 4, var=1.0 / 4)
    h2 = cgauss(rng, 4, var=1.0)
    eps, rho = 0.42, 1.3
    out = _relay(tx, h1, h2, rng, cfo=eps, rho=rho)
    spectrum = np.fft.fft(out[0, 16:])
    cascade_resp = frequency_response(h1, 64) * frequency_response(h2, 64)
    reference = ici_reference(sym[0], cascade_resp, eps, scale=rho)
    assert np.max(np.abs(spectrum - reference)) / np.max(np.abs(reference)) < 1e-9


def test_relay_branch_linear_in_gain():
    _, tx = _tx(9)
    rng = np.random.default_rng(10)
    h1, h2 = cgauss(rng, 3, 1 / 3), cgauss(rng, 2, 1 / 2)
    one = _relay(tx, h1, h2, np.random.default_rng(0), cfo=0.2, rho=1.0)
    two = _relay(tx, h1, h2, np.random.default_rng(0), cfo=0.2, rho=2.0)
    assert np.array_equal(two, 2.0 * one)


def test_relay_branch_isi_precondition():
    _, tx = _tx(11)
    with pytest.raises(ValueError, match="9\\+8 taps.*16 samples"):
        _relay(tx, np.ones(9), np.ones(8), np.random.default_rng(0))


# ------------------------------------------------------------------- combining

def test_single_branch_real_channel_needs_no_derotation():
    sym, tx = _tx(12)
    taps = np.array([0.7])  # real positive channel, zero offset
    received = simulate_direct(tx, taps, 0.0, 0.0, np.random.default_rng(0), PARAMS)
    gain = branch_gain([taps], 0.0, 64)
    assert np.allclose(np.angle(gain), 0.0, atol=1e-15)
    combined = derotate_branch(received, gain, PARAMS)
    assert np.max(np.abs(combined - 0.7 * sym)) < 1e-12


def test_two_ideal_branches_combine_coherently():
    sym, tx = _tx(13)
    unit = np.array([1.0])
    y1 = simulate_direct(tx, unit, 0.0, 0.0, np.random.default_rng(0), PARAMS)
    y2 = _relay(tx, unit, unit, np.random.default_rng(0))
    gains = [branch_gain([unit], 0.0, 64), branch_gain([unit, unit], 0.0, 64)]
    combined = derotate_branch(y1, gains[0], PARAMS) + derotate_branch(y2, gains[1], PARAMS)
    assert np.max(np.abs(combined - 2.0 * sym)) < 1e-12


def test_combined_metric_matches_closed_form_assembly():
    # full noise-free chain vs the spectrum assembled from the closed form
    sym, tx = _tx(14)
    rng = np.random.default_rng(15)
    h0 = cgauss(rng, 4, 1 / 4)
    h1, h2 = cgauss(rng, 4, 1 / 4), cgauss(rng, 4, 1.0)
    e1, e2, rho = 0.17, -0.33, 0.9
    y1 = simulate_direct(tx, h0, e1, 0.0, rng, PARAMS)
    y2 = _relay(tx, h1, h2, rng, cfo=e2, rho=rho)
    g1 = branch_gain([h0], e1, 64)
    g2 = branch_gain([h1, h2], e2, 64, scale=rho)
    combined = (derotate_branch(y1, g1, PARAMS) + derotate_branch(y2, g2, PARAMS))[0]

    ref1 = ici_reference(sym[0], frequency_response(h0, 64), e1)
    ref2 = ici_reference(
        sym[0], frequency_response(h1, 64) * frequency_response(h2, 64), e2, scale=rho
    )
    reference = ref1 * np.exp(-1j * np.angle(g1)) + ref2 * np.exp(-1j * np.angle(g2))
    assert np.max(np.abs(combined - reference)) / np.max(np.abs(reference)) < 1e-9


def test_derotation_makes_dominant_coefficient_real_nonnegative():
    rng = np.random.default_rng(16)
    for _ in range(10):
        sym, tx = _tx(rng.integers(1 << 31))
        h0 = cgauss(rng, 4, 1 / 4)
        eps = rng.uniform(-0.5, 0.5)
        y = simulate_direct(tx, h0, eps, 0.0, rng, PARAMS)
        gain = branch_gain([h0], eps, 64)
        derotated_gain = gain * np.exp(-1j * np.angle(gain))
        assert np.all(derotated_gain.real >= 0)
        assert np.max(np.abs(derotated_gain.imag)) < 1e-12 * np.max(np.abs(gain))
        assert derotate_branch(y, gain, PARAMS).shape == (1, 64)


def test_combining_is_linear_in_branches():
    # the two-branch decomposition is the sum of the one-branch ones
    sym, tx = _tx(17)
    rng = np.random.default_rng(18)
    h0, h1, h2 = cgauss(rng, 2, 0.5), cgauss(rng, 3, 1 / 3), cgauss(rng, 2, 2.0)
    y1 = simulate_direct(tx, h0, 0.1, 0.0, rng, PARAMS)
    y2 = _relay(tx, h1, h2, rng, cfo=-0.2, rho=1.1)
    g1 = branch_gain([h0], 0.1, 64)
    g2 = branch_gain([h1, h2], -0.2, 64, scale=1.1)
    s1, s2 = derotate_branch(y1, g1, PARAMS), derotate_branch(y2, g2, PARAMS)
    combined = decompose_trial([s1, s2], [g1, g2], sym)
    first, second = decompose_trial([s1], [g1], sym), decompose_trial([s2], [g2], sym)
    assert np.array_equal(combined.signal_power, first.signal_power + second.signal_power)
    assert np.array_equal(combined.residual_power, first.residual_power + second.residual_power)


def test_zero_genie_gain_is_flagged():
    sym, tx = _tx(19)
    gain = branch_gain([np.array([1.0])], 0.0, 64)
    gain[5] = 0.0
    with pytest.warns(UserWarning, match=r"zero at bins \[5\]"):
        spectrum = derotate_branch(tx, gain, PARAMS)
    assert np.isfinite(spectrum).all()


# --------------------------------------------------------------- decomposition

def test_no_offset_no_noise_leaves_zero_residual():
    sym, tx = _tx(21)
    rng = np.random.default_rng(22)
    h0 = cgauss(rng, 4, 1 / 4)
    h1, h2 = cgauss(rng, 4, 1 / 4), cgauss(rng, 4, 1.0)
    y1 = simulate_direct(tx, h0, 0.0, 0.0, rng, PARAMS)
    y2 = _relay(tx, h1, h2, rng)
    gains = [branch_gain([h0], 0.0, 64), branch_gain([h1, h2], 0.0, 64)]
    spectra = [derotate_branch(y, g, PARAMS) for y, g in zip([y1, y2], gains)]
    outcome = decompose_trial(spectra, gains, sym)
    assert outcome.residual_power < 1e-18
    assert outcome.subcarrier_count == 64


def test_scaling_symbols_by_two_quadruples_signal_power():
    sym, tx = _tx(23)
    rng = np.random.default_rng(24)
    h0 = cgauss(rng, 4, 1 / 4)
    gain = branch_gain([h0], 0.1, 64)
    spectrum = derotate_branch(simulate_direct(tx, h0, 0.1, 0.0, rng, PARAMS), gain, PARAMS)
    base = decompose_trial([spectrum], [gain], sym)
    scaled = decompose_trial([2.0 * spectrum], [gain], 2.0 * sym)
    assert np.array_equal(scaled.signal_power, 4.0 * base.signal_power)


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


def test_decompose_requires_matching_lengths():
    sym = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        decompose_trial([np.ones(8)], [], sym)


# ----------------------------------------------------------------- whole trial

def test_trial_is_deterministic_given_the_stream():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    direct = DirectPath(uniform_profile(4, 1.0), 0.1, 0.001)
    relays = [RelayPath(uniform_profile(4, 1.0), uniform_profile(4, 4.0), 0.2, 0.8, 0.001, 0.001)]
    a = simulate_trial(params, direct, relays, np.random.default_rng([7, 1]))
    b = simulate_trial(params, direct, relays, np.random.default_rng([7, 1]))
    assert a == b


def test_trial_supports_multiple_relay_branches():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    direct = DirectPath(flat_profile(1.0), 0.05, 0.001)
    relays = [
        RelayPath(flat_profile(1.0), flat_profile(2.0), 0.1, 1.0, 0.001, 0.001),
        RelayPath(uniform_profile(2, 1.0), uniform_profile(2, 1.0), -0.2, 0.7, 0.001, 0.001),
    ]
    outcome = simulate_trial(params, direct, relays, np.random.default_rng(5))
    assert outcome.signal_power > 0 and outcome.residual_power > 0


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
