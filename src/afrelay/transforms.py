"""The CFO attenuation of the intended subcarrier and its derivative.

The engine transforms with numpy directly: `np.fft.fft` is the
un-normalized forward transform and `np.fft.ifft` carries the 1/N factor.
Under this pairing the transform of the unit-magnitude frequency-offset
ramp (1/N)exp(j2*pi*eps*n/N) is the leakage coefficient C(eps, k), and
`dirichlet_gain` is |C(eps, 0)|.  The full coefficient series is written
out in the test oracle (`tests/waveform.py`).
"""
from __future__ import annotations

import numpy as np

# Largest fractional frequency offset (in subcarrier spacings) after
# integer-offset correction; the interval [-FCFO_BOUND, FCFO_BOUND] is closed.
FCFO_BOUND = 0.5

# Below these |eps| the gain is 1 in double precision, and the derivative
# its leading-order expansion, there more accurate than its exact form.
_ZERO_OFFSET, _SMALL_OFFSET = 1e-9, 1e-4


def _n_sin(y, n):
    """n sin(y / n) as y sin(t) / t, t = y / n: exactly y once t is tiny."""
    if n < 2:
        raise ValueError(f"subcarrier count must be >= 2, got {n}")
    t = y / n
    return y * (np.sin(t) / t)


def dirichlet_gain(eps, n: int) -> np.ndarray:
    """Amplitude kept on the intended subcarrier under each fractional CFO.

    f(eps) = sin(pi*eps) / (n sin(pi*eps/n)); f(0) = 1, even in eps,
    strictly decreasing in |eps| on [0, 0.5], and sin(pi*eps) / (pi*eps) as
    n grows without bound.  Computed on |eps| so the even symmetry is
    exact.  Elementwise over an array of offsets.
    """
    e = np.abs(np.asarray(eps, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(e < _ZERO_OFFSET, 1.0, np.sin(np.pi * e) / _n_sin(np.pi * e, n))


def dirichlet_gain_derivative(eps, n: int) -> np.ndarray:
    """Analytic derivative of `dirichlet_gain` with respect to eps.

    Near the removable singularity at eps = 0 the leading-order expansion
    -(pi^2 eps / 3)(1 - 1/n^2) is used, which gives exactly 0 at eps = 0.
    Elementwise, like `dirichlet_gain`.
    """
    e = np.asarray(eps, dtype=np.float64)
    y = np.pi * e
    with np.errstate(divide="ignore", invalid="ignore"):
        d = _n_sin(y, n)
        # 1/n/n: an int n beyond 1e154 has an n**2 that no float holds
        return np.where(np.abs(e) < _SMALL_OFFSET, -(np.pi ** 2) * e * (1.0 - 1.0 / n / n) / 3.0,
                        np.pi * (np.cos(y) * d - np.sin(y) * np.cos(y / n)) / d ** 2)
