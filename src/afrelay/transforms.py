"""DFT/IDFT kernels and the CFO attenuation of the intended subcarrier.

Conventions: the forward transform is un-normalized and the inverse carries
the 1/N factor.  Under this pairing the transform of the unit-magnitude
frequency-offset ramp (1/N)exp(j2*pi*eps*n/N) is the leakage coefficient
C(eps, k), and `dirichlet_gain` is |C(eps, 0)|.  The full coefficient
series is written out in the test oracle (`tests/waveform.py`).
"""
from __future__ import annotations

import numpy as np

# Largest fractional frequency offset (in subcarrier spacings) after
# integer-offset correction; the interval [-FCFO_BOUND, FCFO_BOUND] is closed.
FCFO_BOUND = 0.5

# Below this the singular-denominator argument of the Dirichlet kernel is
# treated as zero and the removable singularity is evaluated by its limit.
_SINGULAR_ARG = 1e-9


def require_fractional_cfo(eps: float, name: str = "eps") -> float:
    """Validate a fractional CFO value, |eps| <= 0.5 subcarrier spacings."""
    eps = float(eps)
    if not np.isfinite(eps) or abs(eps) > FCFO_BOUND:
        raise ValueError(
            f"{name}={eps!r} is not a fractional CFO: require |{name}| <= {FCFO_BOUND} "
            "(integer offsets are assumed already corrected)"
        )
    return eps


def _as_signal(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 0 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty complex array, got shape {arr.shape}")
    return arr


def dft(x, n: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Un-normalized forward transform Y[k] = sum_n x[n] exp(-j2*pi*k*n/N).

    Taken along the last axis, so a (trials, N) block transforms row by
    row; any length N is exact.  With `n`, the rows are zero-padded to n
    samples inside the transform.  With `out`, a complex array of the
    result's shape, the result is written there.
    """
    return np.fft.fft(_as_signal(x, "x"), n, axis=-1, out=out)


def idft(spectrum, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of `dft` along the last axis: x[n] = (1/N) sum_k Y[k] exp(j2*pi*k*n/N).

    With `out` the result is written there; `out` may be `spectrum` itself."""
    return np.fft.ifft(_as_signal(spectrum, "spectrum"), axis=-1, out=out)


def dirichlet_gain(eps, n: int) -> np.ndarray:
    """Amplitude kept on the intended subcarrier under each fractional CFO.

    f(eps) = sin(pi*eps) / (n sin(pi*eps/n)); f(0) = 1, even in eps,
    strictly decreasing in |eps| on [0, 0.5].  Computed on |eps| so the
    even symmetry is exact.  Elementwise over an array of offsets.
    """
    if n < 2:
        raise ValueError(f"subcarrier count must be >= 2, got {n}")
    e = np.abs(np.asarray(eps, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.pi * e / n < _SINGULAR_ARG, 1.0,
                        np.sin(np.pi * e) / (n * np.sin(np.pi * e / n)))


def dirichlet_gain_derivative(eps, n: int) -> np.ndarray:
    """Analytic derivative of `dirichlet_gain` with respect to eps.

    Near the removable singularity at eps = 0 the leading-order expansion
    -(pi^2 eps / 3)(1 - 1/n^2) is used, which gives exactly 0 at eps = 0.
    Elementwise, like `dirichlet_gain`.
    """
    if n < 2:
        raise ValueError(f"subcarrier count must be >= 2, got {n}")
    e = np.asarray(eps, dtype=np.float64)
    s, c = np.sin(np.pi * e), np.cos(np.pi * e)
    sn, cn = np.sin(np.pi * e / n), np.cos(np.pi * e / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(np.pi * e / n) < _SINGULAR_ARG,
                        -(np.pi ** 2) * e * (1.0 - 1.0 / n ** 2) / 3.0,
                        np.pi * (n * c * sn - s * cn) / (n * sn) ** 2)
