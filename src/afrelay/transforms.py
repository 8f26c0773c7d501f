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

# Below this the singular-denominator argument of the Dirichlet kernel is
# treated as zero and the removable singularity is evaluated by its limit.
_SINGULAR_ARG = 1e-9


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
        # 1/n/n: an int n beyond 1e154 has an n**2 that no float holds
        return np.where(np.abs(np.pi * e / n) < _SINGULAR_ARG,
                        -(np.pi ** 2) * e * (1.0 - 1.0 / n / n) / 3.0,
                        np.pi * (n * c * sn - s * cn) / (n * sn) ** 2)
