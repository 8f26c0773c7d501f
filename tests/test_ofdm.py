"""Symbol draw, and the time-domain oracle's modulation and cyclic-prefix
handling."""
import numpy as np
import pytest

from afrelay.ofdm import CONSTELLATIONS, OfdmParams, draw_symbols
from waveform import modulate, remove_cp


def test_params_validation():
    with pytest.raises(ValueError):
        OfdmParams(n_subcarriers=4)
    with pytest.raises(ValueError):
        OfdmParams(cp_len=64)  # must be < n_subcarriers
    with pytest.raises(ValueError):
        OfdmParams(cp_len=-1)
    with pytest.raises(ValueError):
        OfdmParams(constellation="qam64")
    with pytest.raises(ValueError):
        OfdmParams(constellation=["qpsk"])  # unhashable
    with pytest.raises(ValueError):
        OfdmParams(symbol_power=0.0)


def test_constellations_have_unit_average_power():
    for name, table in CONSTELLATIONS.items():
        assert np.mean(np.abs(table) ** 2) == pytest.approx(1.0, abs=1e-15), name


def test_qpsk_symbols_have_constant_modulus():
    params = OfdmParams(constellation="qpsk", symbol_power=1.0)
    sym = draw_symbols(params, np.random.default_rng(0), 3)
    assert sym.shape == (3, 64)
    assert np.allclose(np.abs(sym) ** 2, 1.0, atol=1e-15)


def test_draw_is_deterministic_for_a_given_seed():
    params = OfdmParams()
    a = draw_symbols(params, np.random.default_rng(42), 2)
    b = draw_symbols(params, np.random.default_rng(42), 2)
    assert np.array_equal(a, b)


def test_qam16_sample_power_converges():
    params = OfdmParams(n_subcarriers=64, constellation="qam16", symbol_power=2.0)
    rng = np.random.default_rng(1)
    draws = draw_symbols(params, rng, 100_000 // 64 + 1)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(2.0, rel=0.01)


def test_modulate_zeros_gives_zero_signal():
    params = OfdmParams(n_subcarriers=16, cp_len=4)
    sig = modulate(np.zeros((2, 16)), params)
    assert sig.shape == (2, 20)
    assert np.all(sig == 0)


def test_cyclic_prefix_copies_tail_of_body():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    sym = draw_symbols(params, np.random.default_rng(2), 3)
    sig = modulate(sym, params)
    assert sig.shape == (3, 80)
    assert np.array_equal(sig[:, :16], sig[:, 64:])


def test_modulate_rejects_wrong_length():
    params = OfdmParams(n_subcarriers=64)
    with pytest.raises(ValueError):
        modulate(np.zeros(32), params)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("cp", [0, 4, 16])
def test_perfect_channel_round_trip(n, cp):
    if cp >= n:
        pytest.skip("prefix must be shorter than the symbol")
    params = OfdmParams(n_subcarriers=n, cp_len=cp)
    sym = draw_symbols(params, np.random.default_rng(n + cp), 2)
    recovered = np.fft.fft(remove_cp(modulate(sym, params), params))
    assert np.max(np.abs(recovered - sym)) < 1e-12


def test_body_power_is_symbol_power_over_n():
    params = OfdmParams(n_subcarriers=64, cp_len=16, symbol_power=1.0)
    sym = draw_symbols(params, np.random.default_rng(3), 1)
    body = remove_cp(modulate(sym, params), params)
    assert np.mean(np.abs(body) ** 2) == pytest.approx(1.0 / 64, abs=1e-12)


def test_remove_cp_keeps_body():
    params = OfdmParams(n_subcarriers=16, cp_len=4)
    body = np.arange(32, dtype=complex).reshape(2, 16)
    extended = np.concatenate([body[:, -4:], body], axis=1)
    out = remove_cp(extended, params)
    assert out.shape == (2, 16)
    assert np.array_equal(out, body)


def test_remove_cp_with_zero_length_prefix_is_identity():
    params = OfdmParams(n_subcarriers=16, cp_len=0)
    sig = modulate(np.ones((1, 16)), params)
    out = remove_cp(sig, params)
    assert np.array_equal(out, sig)


def test_remove_cp_rejects_bad_state():
    params = OfdmParams(n_subcarriers=16, cp_len=4)
    stripped = np.ones((1, 16), dtype=complex)  # prefix already removed
    with pytest.raises(ValueError):
        remove_cp(stripped, params)
    wrong_len = np.ones((1, 10), dtype=complex)
    with pytest.raises(ValueError):
        remove_cp(wrong_len, params)
