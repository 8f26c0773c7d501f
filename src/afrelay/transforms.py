"""DFT/IDFT kernels and the CFO leakage coefficients.

Conventions: the forward transform is un-normalized and the inverse carries
the 1/N factor.  Under this pairing the transform of the unit-magnitude
frequency-offset ramp (1/N)exp(j2*pi*eps*n/N) is exactly the leakage
coefficient returned by `cfo_spectrum`, and `dirichlet_gain` is the
magnitude of its bin-0 value.
"""
from __future__ import annotations

import numpy as np

# Largest fractional frequency offset (in subcarrier spacings) after
# integer-offset correction.
FCFO_BOUND = 0.5

# Below this the singular-denominator argument of the Dirichlet kernel is
# treated as zero and the removable singularity is evaluated by its limit.
_SINGULAR_ARG = 1e-9


def require_fractional_cfo(eps: float, name: str = "eps") -> float:
    """Validate a fractional CFO value, |eps| < 0.5 subcarrier spacings."""
    eps = float(eps)
    if not np.isfinite(eps) or abs(eps) >= FCFO_BOUND:
        raise ValueError(
            f"{name}={eps!r} is not a fractional CFO: require |{name}| < {FCFO_BOUND} "
            "(integer offsets are assumed already corrected)"
        )
    return eps


def _as_signal(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 0 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty complex array, got shape {arr.shape}")
    return arr


def dft(x) -> np.ndarray:
    """Un-normalized forward transform Y[k] = sum_n x[n] exp(-j2*pi*k*n/N).

    Taken along the last axis, so a (trials, N) block transforms row by
    row; any length N is exact.
    """
    return np.fft.fft(_as_signal(x, "x"), axis=-1)


def idft(spectrum) -> np.ndarray:
    """Inverse of `dft` along the last axis: x[n] = (1/N) sum_k Y[k] exp(j2*pi*k*n/N)."""
    return np.fft.ifft(_as_signal(spectrum, "spectrum"), axis=-1)


def dirichlet_gain(eps, n: int) -> float | np.ndarray:
    """Amplitude kept on the intended subcarrier under a fractional CFO.

    f(eps) = sin(pi*eps) / (n sin(pi*eps/n)); f(0) = 1, even in eps,
    strictly decreasing in |eps| on [0, 0.5].  Computed on |eps| so the
    even symmetry is exact.  Elementwise; a scalar offset is evaluated as
    a one-element array, so it agrees bitwise with array elements, and
    gives a float.
    """
    if n < 2:
        raise ValueError(f"subcarrier count must be >= 2, got {n}")
    e = np.abs(np.atleast_1d(np.asarray(eps, dtype=np.float64)))
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(np.pi * e / n < _SINGULAR_ARG, 1.0,
                        np.sin(np.pi * e) / (n * np.sin(np.pi * e / n)))
    return float(gain[0]) if np.ndim(eps) == 0 else gain


def dirichlet_gain_derivative(eps, n: int) -> float | np.ndarray:
    """Analytic derivative of `dirichlet_gain` with respect to eps.

    Near the removable singularity at eps = 0 the leading-order expansion
    -(pi^2 eps / 3)(1 - 1/n^2) is used, which gives exactly 0 at eps = 0.
    Elementwise, like `dirichlet_gain`.
    """
    if n < 2:
        raise ValueError(f"subcarrier count must be >= 2, got {n}")
    e = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    s, c = np.sin(np.pi * e), np.cos(np.pi * e)
    sn, cn = np.sin(np.pi * e / n), np.cos(np.pi * e / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(np.abs(np.pi * e / n) < _SINGULAR_ARG,
                         -(np.pi ** 2) * e * (1.0 - 1.0 / n ** 2) / 3.0,
                         np.pi * (n * c * sn - s * cn) / (n * sn) ** 2)
    return float(slope[0]) if np.ndim(eps) == 0 else slope


def cfo_spectrum(eps: float, k: int, n: int) -> complex:
    """Leakage coefficient of a fractional CFO onto bin k.

    Equals the `dft` of the ramp (1/n)exp(j2*pi*eps*t/n) at bin k:

        C(eps, k) = sin[pi(eps-k)] / (n sin[pi(eps-k)/n])
                    * exp[j pi (eps-k)(1 - 1/n)]

    with the removable singularity at eps = k evaluated by its limit.
    |C(eps, 0)| equals `dirichlet_gain(eps, n)` and sum_k |C(eps, k)|^2 = 1.
    """
    if not 0 <= k < n:
        raise ValueError(f"bin index k={k} out of range [0, {n})")
    theta = np.pi * (eps - k)
    if abs(theta / n) < _SINGULAR_ARG:
        mag = 1.0
    else:
        mag = np.sin(theta) / (n * np.sin(theta / n))
    return complex(mag * np.exp(1j * theta * (1.0 - 1.0 / n)))
