"""Transform kernels and CFO leakage functions, checked against direct-sum
and finite-difference reference routes."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afrelay.transforms import (
    cfo_spectrum,
    dft,
    dirichlet_gain,
    dirichlet_gain_derivative,
    idft,
    require_fractional_cfo,
)
from conftest import cgauss, circular_convolve, dft_direct, leakage_vector

# frozen from a 40-digit evaluation of the closed forms
F64_AT_HALF = 0.6366836927259823
F64_AT_QUARTER = 0.9003389142253430
DF64_AT_QUARTER = -0.7726767505077363


# ---------------------------------------------------------------- dft / idft

def test_dft_impulse_gives_flat_spectrum():
    x = np.zeros(16, dtype=complex)
    x[0] = 1.0
    assert np.allclose(dft(x), np.ones(16), atol=1e-14)


def test_dft_complex_exponential_hits_single_bin():
    n, m = 64, 5
    x = np.exp(2j * np.pi * m * np.arange(n) / n)
    spec = dft(x)
    assert abs(spec[m] - n) < 1e-12
    others = np.delete(spec, m)
    assert np.max(np.abs(others)) < 1e-12


def test_dft_matches_direct_double_loop():
    rng = np.random.default_rng(1)
    x = cgauss(rng, 64)
    ref = dft_direct(x)
    err = np.max(np.abs(dft(x) - ref)) / np.max(np.abs(ref))
    assert err < 1e-10


def test_dft_arbitrary_length_matches_direct_sum():
    rng = np.random.default_rng(2)
    x = cgauss(rng, 12)  # not a power of two
    ref = dft_direct(x)
    assert np.max(np.abs(dft(x) - ref)) / np.max(np.abs(ref)) < 1e-10


def test_idft_flat_spectrum_gives_impulse():
    out = idft(np.ones(16))
    expected = np.zeros(16, dtype=complex)
    expected[0] = 1.0
    assert np.allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_round_trip_identity(n):
    rng = np.random.default_rng(n)
    x = cgauss(rng, n)
    assert np.max(np.abs(idft(dft(x)) - x)) < 1e-12


def test_round_trip_arbitrary_length():
    rng = np.random.default_rng(3)
    x = cgauss(rng, 12)
    assert np.max(np.abs(idft(dft(x)) - x)) < 1e-12


def test_parseval_under_scaled_inverse():
    rng = np.random.default_rng(4)
    x = cgauss(rng, 64)
    spec = dft(x)
    assert abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(spec) ** 2) / 64) < 1e-12


@pytest.mark.parametrize("func", [dft, idft])
def test_transform_rejects_empty_and_scalar_input(func):
    with pytest.raises(ValueError):
        func(np.array([], dtype=complex))
    with pytest.raises(ValueError):
        func(np.zeros((4, 0), dtype=complex))
    with pytest.raises(ValueError):
        func(np.complex128(1.0))


@pytest.mark.parametrize("func", [dft, idft])
def test_transform_acts_on_each_row_of_a_block(func):
    rng = np.random.default_rng(8)
    block = cgauss(rng, (5, 12))
    rows = np.array([func(row) for row in block])
    assert np.array_equal(func(block), rows)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    x = cgauss(rng, 64)
    assert np.max(np.abs(idft(dft(x)) - x)) < 1e-12


# ---------------------------------------------------------- cyclic convolution

def test_convolve_with_unit_impulse_is_identity():
    rng = np.random.default_rng(5)
    a = cgauss(rng, 16)
    delta = np.zeros(16, dtype=complex)
    delta[0] = 1.0
    assert np.allclose(circular_convolve(a, delta, 16), a, atol=1e-14)


def test_convolve_commutes():
    rng = np.random.default_rng(6)
    a, b = cgauss(rng, 16), cgauss(rng, 16)
    ab = circular_convolve(a, b, 16)
    ba = circular_convolve(b, a, 16)
    assert np.max(np.abs(ab - ba)) < 1e-12


def test_convolve_matches_transform_domain_product():
    rng = np.random.default_rng(7)
    a, b = cgauss(rng, 64), cgauss(rng, 64)
    direct = dft(circular_convolve(a, b, 64))
    product = dft(a) * dft(b)
    assert np.max(np.abs(direct - product)) / np.max(np.abs(product)) < 1e-10


def test_convolve_pads_and_truncates_to_length():
    a = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    delta = np.array([1.0], dtype=complex)
    out = circular_convolve(a, delta, 2)  # truncates a to [1, 2]
    assert np.allclose(out, [1.0, 2.0])
    out = circular_convolve(np.array([1.0 + 0j]), delta, 3)  # zero-pads
    assert np.allclose(out, [1.0, 0.0, 0.0])


def test_convolve_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        circular_convolve(np.ones(4), np.ones(4), 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_convolution_theorem_property(seed):
    rng = np.random.default_rng(seed)
    a, b = cgauss(rng, 16), cgauss(rng, 16)
    lhs = dft(circular_convolve(a, b, 16))
    rhs = dft(a) * dft(b)
    assert np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-30) < 1e-10


# ------------------------------------------------------------- dirichlet gain

@pytest.mark.parametrize("n", [2, 16, 64, 1024])
def test_gain_is_one_at_zero_offset(n):
    assert dirichlet_gain(0.0, n) == 1.0


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.49])
def test_gain_is_even(eps):
    assert dirichlet_gain(-eps, 64) == dirichlet_gain(eps, 64)


def test_gain_frozen_values():
    assert dirichlet_gain(0.5, 64) == pytest.approx(F64_AT_HALF, rel=1e-14)
    assert dirichlet_gain(0.25, 64) == pytest.approx(F64_AT_QUARTER, rel=1e-14)


def test_gain_strictly_decreasing_and_bounded_on_half_interval():
    eps = np.linspace(1e-4, 0.5, 200)
    vals = np.array([dirichlet_gain(e, 64) for e in eps])
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0) and np.all(vals < 1)


def test_gain_rejects_tiny_n():
    with pytest.raises(ValueError):
        dirichlet_gain(0.1, 1)


# -------------------------------------------------------------- its derivative

def test_derivative_zero_at_origin():
    assert dirichlet_gain_derivative(0.0, 64) == 0.0


@pytest.mark.parametrize("eps", [0.1, 0.3, -0.1, -0.3])
def test_derivative_sign_opposes_offset(eps):
    assert np.sign(dirichlet_gain_derivative(eps, 64)) == -np.sign(eps)


def test_derivative_frozen_value():
    assert dirichlet_gain_derivative(0.25, 64) == pytest.approx(DF64_AT_QUARTER, rel=1e-13)


def central_difference_gain(eps, n, h=1e-6):
    return (dirichlet_gain(eps + h, n) - dirichlet_gain(eps - h, n)) / (2 * h)


def test_derivative_matches_finite_difference():
    exact = dirichlet_gain_derivative(0.25, 64)
    approx = central_difference_gain(0.25, 64)
    assert abs(exact - approx) / abs(approx) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.45), st.sampled_from([16, 64, 256]))
def test_derivative_finite_difference_property(eps, n):
    exact = dirichlet_gain_derivative(eps, n)
    approx = central_difference_gain(eps, n)
    assert abs(exact - approx) / abs(approx) < 1e-6


# ---------------------------------------------------- elementwise over arrays

def offsets(n):
    """Offsets in [-0.5, 0.5] weighted towards the edge cases: inside the
    singular band |eps| < 1e-9 n / pi, exactly 0, and exactly +-0.5."""
    band = 1e-9 * n / np.pi
    return st.one_of(
        st.floats(-0.5, 0.5),
        st.floats(-band, band),
        st.sampled_from([0.0, -0.0, 0.5, -0.5, band, -band]),
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 7, 12, 64, 100, 1000]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(offsets(n), min_size=1, max_size=20))))
def test_array_call_equals_scalar_calls_bitwise(case):
    n, eps = case
    arr = np.array(eps)
    gains = dirichlet_gain(arr, n)
    slopes = dirichlet_gain_derivative(arr, n)
    assert gains.shape == slopes.shape == arr.shape
    for i, e in enumerate(eps):
        g, d = dirichlet_gain(e, n), dirichlet_gain_derivative(e, n)
        assert type(g) is float and type(d) is float
        assert gains[i] == g and slopes[i] == d
        assert dirichlet_gain(-e, n) == g
        assert dirichlet_gain_derivative(-e, n) == -d
    # a (points, branches) block is the same elementwise map
    block = np.array([eps, [-e for e in eps]])
    assert np.array_equal(dirichlet_gain(block, n), np.array([gains, gains]))
    assert np.array_equal(dirichlet_gain_derivative(block, n), np.array([slopes, -slopes]))


# ------------------------------------------------------------- leakage spectrum

def test_leakage_no_offset_no_leakage():
    assert cfo_spectrum(0.0, 0, 64) == 1.0 + 0.0j
    for k in range(1, 64):
        assert abs(cfo_spectrum(0.0, k, 64)) < 1e-14


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.45])
def test_leakage_energy_sums_to_one(eps):
    total = sum(abs(cfo_spectrum(eps, k, 64)) ** 2 for k in range(64))
    assert abs(total - 1.0) < 1e-12


def test_leakage_matches_transform_of_ramp():
    n, eps = 64, 0.3
    ramp = np.exp(2j * np.pi * eps * np.arange(n) / n) / n
    via_transform = dft(ramp)
    closed_form = leakage_vector(eps, n)
    err = np.max(np.abs(closed_form - via_transform)) / np.max(np.abs(via_transform))
    assert err < 1e-10


@pytest.mark.parametrize("eps", [0.3, -0.3, 0.05])
def test_leakage_bin_zero_magnitude_is_dirichlet_gain(eps):
    assert abs(cfo_spectrum(eps, 0, 64)) == pytest.approx(dirichlet_gain(eps, 64), abs=1e-15)


def test_leakage_rejects_out_of_range_bin():
    with pytest.raises(ValueError):
        cfo_spectrum(0.1, 64, 64)
    with pytest.raises(ValueError):
        cfo_spectrum(0.1, -1, 64)


def test_energy_identity_over_offset_grid():
    # identity holds across the whole fractional-offset range
    for eps in np.linspace(-0.49, 0.49, 50):
        total = sum(abs(cfo_spectrum(eps, k, 64)) ** 2 for k in range(64))
        assert abs(total - 1.0) < 1e-12


# ----------------------------------------------------------------- validation

def test_fractional_cfo_bound_enforced():
    assert require_fractional_cfo(0.49) == 0.49
    with pytest.raises(ValueError, match="0.5"):
        require_fractional_cfo(0.6)
    with pytest.raises(ValueError, match="0.5"):
        require_fractional_cfo(-0.5)
