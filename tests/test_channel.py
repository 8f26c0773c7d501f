"""Channel draw statistics, convolution/prefix circularity, CFO ramp, noise."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afrelay.channel import (
    PowerDelayProfile,
    add_noise,
    apply_cfo,
    apply_channel,
    draw_channel,
    exponential_profile,
    flat_profile,
    frequency_response,
    linear_convolve,
    standard_noise,
    uniform_profile,
)
from afrelay.ofdm import OfdmParams, draw_symbols, modulate, remove_cp
from afrelay.transforms import dft
from conftest import cgauss, circular_convolve, ici_reference


# ------------------------------------------------------------------- profiles

def test_profile_constructors_distribute_power():
    assert flat_profile(2.0).tap_powers.tolist() == [2.0]
    uni = uniform_profile(4, 1.0)
    assert uni.n_taps == 4
    assert uni.total_power == pytest.approx(1.0)
    assert np.allclose(uni.tap_powers, 0.25)
    exp = exponential_profile(6, 3.0, decay=2.0)
    assert exp.total_power == pytest.approx(3.0)
    assert np.all(np.diff(exp.tap_powers) < 0)


def test_profile_validation():
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([]))
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        uniform_profile(0)
    with pytest.raises(ValueError):
        exponential_profile(4, 1.0, decay=0.0)


# ----------------------------------------------------------------- draw_channel

def test_flat_fading_tap_power_converges():
    rng = np.random.default_rng(10)
    profile = flat_profile(1.0)
    taps = draw_channel(profile, rng, 100_000)[:, 0]
    assert np.mean(np.abs(taps) ** 2) == pytest.approx(1.0, rel=0.01)
    assert abs(np.mean(taps)) < 0.01  # zero mean
    # Rayleigh magnitude: mean |h| = sqrt(pi)/2 for unit tap power
    assert np.mean(np.abs(taps)) == pytest.approx(np.sqrt(np.pi) / 2, rel=0.01)


def test_zero_power_profile_draws_zero_channel():
    profile = PowerDelayProfile(np.zeros(3))
    taps = draw_channel(profile, np.random.default_rng(0), 2)
    assert taps.shape == (2, 3)
    assert np.all(taps == 0)


def test_selective_profile_bin_power_converges():
    rng = np.random.default_rng(11)
    profile = uniform_profile(4, 1.0)
    n, draws = 64, 100_000
    taps = np.sqrt(profile.tap_powers / 2) * (
        rng.standard_normal((draws, 4)) + 1j * rng.standard_normal((draws, 4))
    )
    for k in (0, n // 2):
        response = taps @ np.exp(-2j * np.pi * k * np.arange(4) / n)
        assert np.mean(np.abs(response) ** 2) == pytest.approx(1.0, rel=0.01)


def test_bin_power_flat_across_bins_within_standard_error():
    rng = np.random.default_rng(12)
    profile = uniform_profile(4, 1.0)
    n, draws = 64, 100_000
    taps = np.sqrt(profile.tap_powers / 2) * (
        rng.standard_normal((draws, 4)) + 1j * rng.standard_normal((draws, 4))
    )
    for k in (1, 17, 40):
        power = np.abs(taps @ np.exp(-2j * np.pi * k * np.arange(4) / n)) ** 2
        stderr = np.std(power) / np.sqrt(draws)
        assert abs(np.mean(power) - 1.0) < 3 * stderr


# ----------------------------------------------------------- frequency_response

def test_unit_tap_gives_flat_response():
    assert np.allclose(frequency_response(np.array([1.0]), 16), np.ones(16))


def test_pure_delay_is_allpass():
    resp = frequency_response(np.array([0.0, 1.0]), 16)
    assert np.allclose(np.abs(resp), 1.0, atol=1e-14)


def test_response_matches_direct_sum():
    rng = np.random.default_rng(13)
    taps = cgauss(rng, 4)
    n = 64
    resp = frequency_response(taps, n)
    k = np.arange(n)[:, None]
    direct = np.sum(taps[None, :] * np.exp(-2j * np.pi * k * np.arange(4)[None, :] / n), axis=1)
    assert np.max(np.abs(resp - direct)) < 1e-12


def test_response_rejects_more_taps_than_bins():
    with pytest.raises(ValueError):
        frequency_response(np.ones(17), 16)


# ------------------------------------------------------------- linear_convolve

@pytest.mark.parametrize("n_taps", [2, 6])  # fewer and more taps than rows
def test_linear_convolve_matches_numpy_row_by_row(n_taps):
    rng = np.random.default_rng(19)
    x, taps = cgauss(rng, (3, 20)), cgauss(rng, (3, n_taps))
    full = linear_convolve(x, taps, 19 + n_taps)
    truncated = linear_convolve(x, taps, 20)
    for row, (a, b) in enumerate(zip(x, taps)):
        reference = np.convolve(a, b)
        assert np.max(np.abs(full[row] - reference)) < 1e-12
        assert np.max(np.abs(truncated[row] - reference[:20])) < 1e-12


# --------------------------------------------------------------- apply_channel

def _modulated(params, seed):
    return modulate(draw_symbols(params, np.random.default_rng(seed), 1), params)


def test_unit_tap_channel_is_identity():
    params = OfdmParams(n_subcarriers=16, cp_len=4)
    sig = _modulated(params, 1)
    out = apply_channel(sig, np.array([1.0]), params)
    assert np.allclose(out, sig, atol=1e-15)


def test_delay_channel_cyclically_shifts_body():
    params = OfdmParams(n_subcarriers=16, cp_len=4)
    sig = _modulated(params, 2)
    delayed = remove_cp(apply_channel(sig, np.array([0.0, 1.0]), params), params)
    body = remove_cp(sig, params)
    assert np.max(np.abs(delayed - np.roll(body, 1, axis=-1))) < 1e-14


def test_prefix_makes_linear_convolution_circular():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    rng = np.random.default_rng(14)
    sig = _modulated(params, 3)
    taps = cgauss(rng, 5)
    linear_route = remove_cp(apply_channel(sig, taps, params), params)[0]
    circular_route = circular_convolve(remove_cp(sig, params)[0], taps, 64)
    assert np.max(np.abs(linear_route - circular_route)) < 1e-12


def test_noise_free_zero_cfo_pipeline_factorizes_per_bin():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    rng = np.random.default_rng(15)
    sym = draw_symbols(params, rng, 1)
    taps = cgauss(rng, 4)
    received = dft(remove_cp(apply_channel(modulate(sym, params), taps, params), params))
    expected = frequency_response(taps, 64) * sym
    assert np.max(np.abs(received - expected)) / np.max(np.abs(expected)) < 1e-10


def test_channel_memory_longer_than_prefix_is_rejected():
    params = OfdmParams(n_subcarriers=16, cp_len=2)
    sig = _modulated(params, 4)
    with pytest.raises(ValueError, match="memory 3.*prefix length 2"):
        apply_channel(sig, np.ones(4), params)


def test_channel_requires_prefix_extended_input():
    params = OfdmParams(n_subcarriers=16, cp_len=4)
    stripped = np.ones((1, 16), dtype=complex)  # 16 body samples, no prefix
    with pytest.raises(ValueError):
        apply_channel(stripped, np.ones(1), params)


# ------------------------------------------------------------------- apply_cfo

def test_zero_offset_is_identity():
    params = OfdmParams(n_subcarriers=16, cp_len=4)
    sig = _modulated(params, 5)
    out = apply_cfo(sig, 0.0, params)
    assert np.array_equal(out, sig)


def test_ramp_preserves_sample_magnitudes():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    sig = _modulated(params, 6)
    out = apply_cfo(sig, 0.37, params)
    assert np.max(np.abs(np.abs(out) - np.abs(sig))) < 1e-15


def test_ramp_preserves_total_energy():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    sig = _modulated(params, 7)
    out = apply_cfo(sig, -0.41, params)
    before = np.sum(np.abs(sig) ** 2)
    after = np.sum(np.abs(out) ** 2)
    assert abs(after - before) / before < 1e-13


def test_single_link_spectrum_matches_closed_form():
    # noise-free pipeline vs the dominant-plus-leakage construction
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    rng = np.random.default_rng(16)
    sym = draw_symbols(params, rng, 1)
    taps = cgauss(rng, 4)
    eps = 0.3
    received = apply_cfo(apply_channel(modulate(sym, params), taps, params), eps, params)
    spectrum = dft(remove_cp(received, params))[0]
    reference = ici_reference(sym[0], frequency_response(taps, 64), eps)
    assert np.max(np.abs(spectrum - reference)) / np.max(np.abs(reference)) < 1e-9


def test_ramp_reference_point_is_body_start():
    # on a prefix-free body the ramp starts at phase 0
    body = np.ones((1, 8), dtype=complex)
    out = apply_cfo(body, 0.25, OfdmParams(n_subcarriers=8, cp_len=0))
    expected = np.exp(2j * np.pi * 0.25 * np.arange(8) / 8)
    assert np.max(np.abs(out - expected)) < 1e-15
    # with a prefix the same phases appear shifted to the body samples
    extended = np.ones((1, 10), dtype=complex)
    out2 = apply_cfo(extended, 0.25, OfdmParams(n_subcarriers=8, cp_len=2))
    assert np.max(np.abs(out2[:, 2:] - expected)) < 1e-15


# ---------------------------------------------------------------------- noise

def _noisy(samples, noise_var, rng):
    return add_noise(samples, standard_noise(np.shape(samples), rng), noise_var)


def test_zero_variance_noise_is_identity():
    params = OfdmParams(n_subcarriers=16, cp_len=4)
    sig = _modulated(params, 8)
    out = _noisy(sig, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, sig)


def test_noise_sample_variance_converges():
    rng = np.random.default_rng(17)
    m = 1_000_000
    noisy = _noisy(np.zeros(m, dtype=complex), 0.25, rng)
    assert np.mean(np.abs(noisy) ** 2) == pytest.approx(0.25, rel=0.01)


def test_noise_is_circularly_symmetric():
    rng = np.random.default_rng(18)
    m = 1_000_000
    noisy = _noisy(np.zeros(m, dtype=complex), 0.5, rng)
    assert np.var(noisy.real) == pytest.approx(0.25, rel=0.02)
    assert np.var(noisy.imag) == pytest.approx(0.25, rel=0.02)


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        _noisy(np.ones((1, 4), dtype=complex), -0.1, np.random.default_rng(0))


# ------------------------------------------------------------------ properties

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 17))
def test_prefix_circularity_property(seed, n_taps):
    # for any channel within the prefix, linear filtering then prefix
    # removal equals cyclic convolution of the body
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    rng = np.random.default_rng(seed)
    sig = modulate(draw_symbols(params, rng, 1), params)
    taps = cgauss(rng, n_taps)
    linear_route = remove_cp(apply_channel(sig, taps, params), params)[0]
    circular_route = circular_convolve(remove_cp(sig, params)[0], taps, 64)
    assert np.max(np.abs(linear_route - circular_route)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-0.499, 0.499))
def test_cfo_energy_neutral_property(seed, eps):
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    sig = modulate(draw_symbols(params, np.random.default_rng(seed), 1), params)
    out = apply_cfo(sig, eps, params)
    before = np.sum(np.abs(sig) ** 2)
    after = np.sum(np.abs(out) ** 2)
    assert abs(after - before) / before < 1e-13
