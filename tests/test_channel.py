"""Channel draw statistics and response, noise, and the time-domain oracle's
convolution/prefix circularity and CFO ramp."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afrelay.channel import (
    PowerDelayProfile,
    branch_response,
    draw_channel,
    exponential_profile,
    flat_profile,
    uniform_profile,
)
from afrelay.ofdm import OfdmParams, draw_symbols
from conftest import cgauss, circular_convolve, ici_reference, record_transforms
from waveform import (
    apply_cfo,
    apply_channel,
    linear_convolve,
    modulate,
    remove_cp,
    standard_noise,
)


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


def test_subnormal_decay_puts_all_power_on_tap_zero():
    # -l/decay overflows to -inf there; the shape must still come out
    # without a RuntimeWarning (an error under this suite's settings)
    assert exponential_profile(3, 2.0, decay=5e-324).tap_powers.tolist() == [2.0, 0.0, 0.0]


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


# ------------------------------------------------------- one hop's response

def test_unit_tap_gives_flat_response():
    assert np.allclose(branch_response([np.array([1.0])], 16), np.ones(16))
    # a block of one-tap rows comes back as one column, the taps themselves,
    # which broadcasts against the bins; it is a copy, not a view
    taps = cgauss(np.random.default_rng(20), (5, 1))
    kept = taps.copy()
    resp = branch_response([taps], 64)
    assert resp.shape == (5, 1)
    assert np.array_equal(resp, taps)
    resp[:] = 0
    assert np.array_equal(taps, kept)


def test_pure_delay_is_allpass():
    resp = branch_response([np.array([0.0, 1.0])], 16)
    assert np.allclose(np.abs(resp), 1.0, atol=1e-14)


@pytest.mark.parametrize("n", [60, 64, 127, 1024])  # 127 is prime: a Bluestein transform
@pytest.mark.parametrize("n_taps", [1, 2, 4, 17, 33])
def test_response_matches_direct_sum(n_taps, n):
    rng = np.random.default_rng(13)
    taps = cgauss(rng, n_taps)
    resp = branch_response([taps], n)
    k = np.arange(n)[:, None]
    direct = np.sum(taps[None, :] * np.exp(-2j * np.pi * k * np.arange(n_taps)[None, :] / n),
                    axis=1)
    assert np.max(np.abs(resp - direct)) < 1e-12 * np.max(np.abs(resp))


def test_response_rejects_more_taps_than_bins():
    # np.fft.fft(h, n) would drop the taps beyond n; each hop is checked,
    # a second one too (beside a flat hop, which is never convolved)
    for hops in ([np.ones(17)], [np.ones((2, 1)), np.ones((2, 17))]):
        with pytest.raises(ValueError, match="17 taps, more than n=16"):
            branch_response(hops, 16)


# ------------------------------------------------------------- branch_response

def short_length(l1, l2):
    """m, the power of two >= L1 + L2 - 1 that convolves two multi-tap hops."""
    return 1 << (l1 + l2 - 2).bit_length()


def assert_is_the_convolved_transform(resp, h1, h2):
    # against a per-row np.convolve oracle of the L1 + L2 - 1 tap cascade
    cascade = np.array([np.convolve(a, b) for a, b in zip(h1, h2)])
    expected = np.fft.fft(cascade, resp.shape[-1])
    assert np.max(np.abs(resp - expected)) < 1e-12 * np.max(np.abs(resp))


@pytest.mark.parametrize("l1, l2", [(1, 1), (1, 17), (17, 1), (4, 4), (3, 7), (8, 8),
                                    (5, 4), (4, 5), (4, 6), (17, 2), (2, 17), (1, 33), (33, 1),
                                    (8, 9), (9, 9)])
def test_branch_response_is_the_transform_of_the_convolved_hops(l1, l2):
    # at N = 64, on both sides of the 4 m <= N rule and in both hop orders,
    # against the oracle and the fft product: 8 x 9 is the longest cascade
    # (16 taps) of the short route and 9 x 9 (17 taps, cp + 1) the shortest
    # of the product; 1 x 33 is a flat hop beside a long one, never convolved
    rng = np.random.default_rng(l1 * 100 + l2)
    h1, h2 = cgauss(rng, (5, l1)), cgauss(rng, (5, l2))
    resp = branch_response([h1, h2], 64)
    assert_is_the_convolved_transform(resp, h1, h2)
    product = np.fft.fft(h1, 64) * np.fft.fft(h2, 64)
    assert np.max(np.abs(resp - product) / np.abs(product)) < 1e-12


@pytest.mark.parametrize("n, l1, l2, short", [
    (256, 8, 9, True), (256, 32, 33, True), (256, 33, 32, True),   # m = 16, 64, 64
    (256, 33, 33, False), (256, 2, 64, False), (256, 1, 65, False),  # 65 taps: m = 128
    (1024, 16, 16, True), (1024, 33, 33, True), (1024, 128, 129, True),  # m = 32, 128, 256
    (1024, 129, 129, False), (1024, 256, 2, False)])                     # m = 512
def test_long_branch_response_is_the_transform_of_the_convolved_hops(monkeypatch, n, l1, l2,
                                                                     short):
    # on both sides of 4 m <= N at N = 256 and 1024; 33 x 33 is a cascade of
    # cp + 1 = 65 taps at cp 64, short at N = 1024 and a product at N = 256
    rng = np.random.default_rng(n + l1 * 100 + l2)
    h1, h2 = cgauss(rng, (5, l1)), cgauss(rng, (5, l2))
    calls = record_transforms(monkeypatch)
    resp = branch_response([h1, h2], n)
    m = short_length(l1, l2)
    assert (4 * m <= n and min(l1, l2) > 1) == short
    assert calls == ([("fft", m), ("fft", m), ("ifft", m), ("fft", n)] if short
                     else [("fft", n)] * (1 + (min(l1, l2) > 1)))
    assert_is_the_convolved_transform(resp, h1, h2)


@pytest.mark.parametrize("l1, l2, transforms", [(5, 4, 1), (4, 5, 1), (2, 15, 1), (32, 1, 1),
                                                (6, 4, 1), (4, 6, 1), (2, 16, 2), (8, 8, 1),
                                                (1, 33, 1), (33, 1, 1), (8, 9, 1), (9, 9, 2),
                                                (1, 1, 0)])
def test_branch_response_convolves_only_within_the_rule(monkeypatch, l1, l2, transforms):
    # `transforms` counts the N-point ones.  With m the power of two >= L1 +
    # L2 - 1, 4 m is 32 at 5 x 4, 64 = N at 2 x 15, 6 x 4, 8 x 8 and 8 x 9,
    # and 128 at 2 x 16 and 9 x 9; within the rule two m-point transforms
    # and one inverse convolve the hops and their cascade takes one N-point
    # transform, beyond it each hop takes its own response, in hop order: a
    # flat hop, which is never convolved, its tap column, no transform
    calls = record_transforms(monkeypatch)
    rng = np.random.default_rng(23)
    h1, h2 = cgauss(rng, (5, l1)), cgauss(rng, (5, l2))
    resp = branch_response([h1, h2], 64)
    m, length = short_length(l1, l2), l1 + l2 - 1
    short = min(l1, l2) > 1 and 4 * m <= 64
    assert [c for c in calls if c[1] == 64] == [("fft", 64)] * transforms
    assert [c for c in calls if c[1] != 64] == ([("fft", m), ("fft", m), ("ifft", m)] if short
                                                else [])
    monkeypatch.undo()
    if short:
        spectrum = np.fft.fft(h1, m) * np.fft.fft(h2, m)
        assert np.array_equal(resp, np.fft.fft(np.fft.ifft(spectrum)[:, :length], 64))
    else:
        hop = lambda h: h if h.shape[-1] == 1 else np.fft.fft(h, 64)
        assert np.array_equal(resp, hop(h1) * hop(h2))


@pytest.mark.parametrize("taps", [[1], [17], [1, 1], [1, 17], [17, 1], [4, 4], [8, 9], [9, 9]])
def test_branch_response_into_out_equals_a_fresh_one(taps):
    # `out` holds stale values: each transform pads its taps there by hand,
    # and a response that spans the bins is `out` itself
    rng = np.random.default_rng(sum(taps))
    hops = [cgauss(rng, (5, count)) for count in taps]
    out = np.full((5, 64), complex(np.nan, np.nan))
    resp = branch_response(hops, 64, out=out)
    assert np.array_equal(resp, branch_response(hops, 64))
    assert (resp is out) == (max(taps) > 1)


def test_flat_branch_response_is_the_exact_tap_product():
    rng = np.random.default_rng(21)
    h1, h2 = cgauss(rng, (5, 1)), cgauss(rng, (5, 1))
    resp = branch_response([h1, h2], 64)
    assert resp.shape == (5, 1)
    assert np.array_equal(resp, h1 * h2)


@pytest.mark.parametrize("taps", [[1, 1], [5, 4], [4, 6], [9, 9], [8, 9]])
def test_overflowing_branch_response_raises(taps):
    # for flat hops, on the short route (5 x 4, 4 x 6 and 8 x 9) and on the
    # product (9 x 9) a product beyond the float range overflows, and no
    # step hides it: under a raising errstate it raises
    hops = [np.full((2, count), 1e200 + 0j) for count in taps]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        branch_response(hops, 64)


def test_single_hop_branch_response_is_the_hop_response():
    taps = cgauss(np.random.default_rng(22), (3, 17))
    assert np.array_equal(branch_response([taps], 64), np.fft.fft(taps, 64))


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
    received = np.fft.fft(remove_cp(apply_channel(modulate(sym, params), taps, params), params))
    expected = branch_response([taps], 64) * sym
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
    spectrum = np.fft.fft(remove_cp(received, params))[0]
    reference = ici_reference(sym[0], branch_response([taps], 64), eps)
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

def test_noise_sample_variance_converges():
    # unscaled: unit variance on each part, 2 per complex sample
    noise = standard_noise(1_000_000, np.random.default_rng(17))
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(2.0, rel=0.01)


def test_noise_is_circularly_symmetric():
    noise = standard_noise(1_000_000, np.random.default_rng(18))
    assert np.var(noise.real) == pytest.approx(1.0, rel=0.02)
    assert np.var(noise.imag) == pytest.approx(1.0, rel=0.02)


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
