"""Shared reference routes for the oracle tests.

These helpers deliberately avoid the code paths they are used to check:
`dft_direct` is a plain double loop, `circular_convolve` a direct cyclic
sum, and `ici_reference` assembles a received spectrum from the
closed-form leakage coefficients instead of running the waveform pipeline.
"""
import numpy as np

from afrelay.transforms import cfo_spectrum


def dft_direct(x):
    """O(N^2) double-loop forward transform."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        acc = 0.0 + 0.0j
        for m in range(n):
            acc += x[m] * np.exp(-2j * np.pi * k * m / n)
        out[k] = acc
    return out


def _fit_length(x, n):
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {x.shape}")
    out = np.zeros(n, dtype=np.complex128)
    m = min(x.size, n)
    out[:m] = x[:m]
    return out


def circular_convolve(a, b, n):
    """Length-n cyclic convolution out[m] = sum_r a[r] b[(m-r) mod n].

    Inputs are 1-D, zero-padded or truncated to length n.  Evaluated by the
    direct sum so transform-domain identities can be checked against it.
    """
    if n <= 0:
        raise ValueError(f"cyclic length must be positive, got {n}")
    a = _fit_length(a, n)
    b = _fit_length(b, n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return b[idx] @ a


def leakage_vector(eps, n):
    """All leakage coefficients C(eps, k) for k = 0..n-1."""
    return np.array([cfo_spectrum(eps, k, n) for k in range(n)])


def ici_reference(symbols, freq_resp, eps, scale=1.0):
    """Received spectrum built from the closed form: the dominant term
    scale*C(eps,0)H[k]X[k] plus the directly summed inter-carrier series
    over r = 1..N-1 of scale*C(eps,r)H[k-r]X[k-r] (indices cyclic)."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    freq_resp = np.asarray(freq_resp, dtype=np.complex128)
    n = symbols.size
    coeffs = leakage_vector(eps, n)
    prod = freq_resp * symbols
    k = np.arange(n)
    total = coeffs[0] * prod
    for r in range(1, n):
        total = total + coeffs[r] * prod[(k - r) % n]
    return scale * total


def cgauss(rng, shape, var=1.0):
    """Circularly-symmetric complex Gaussian samples of the given variance."""
    return np.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
