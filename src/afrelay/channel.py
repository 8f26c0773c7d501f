"""Random multipath channels, channel application, CFO ramps, and noise.

Channels are block fading: one tap realization per OFDM symbol, taps drawn
as independent circularly-symmetric complex Gaussians (Rayleigh-magnitude
fading) with per-tap variances given by a power delay profile.  The
stage functions work on whole blocks of trials: the leading axis indexes
trials and the last axis holds taps or samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ofdm import OfdmParams, require_extended
from .transforms import dft


@dataclass(frozen=True, eq=False)
class PowerDelayProfile:
    """Per-tap average powers of one link's multipath channel."""

    tap_powers: np.ndarray

    def __post_init__(self):
        powers = np.asarray(self.tap_powers, dtype=np.float64)
        if powers.ndim != 1 or powers.size == 0:
            raise ValueError("tap_powers must be a non-empty 1-D sequence")
        if np.any(powers < 0) or not np.all(np.isfinite(powers)):
            raise ValueError("tap powers must be finite and non-negative")
        object.__setattr__(self, "tap_powers", powers)

    def __eq__(self, other):
        if not isinstance(other, PowerDelayProfile):
            return NotImplemented
        return np.array_equal(self.tap_powers, other.tap_powers)

    @property
    def n_taps(self) -> int:
        return self.tap_powers.size

    @property
    def total_power(self) -> float:
        """Average channel power, flat across frequency bins."""
        return float(self.tap_powers.sum())


def flat_profile(power: float = 1.0) -> PowerDelayProfile:
    """Single-tap (frequency-flat) profile."""
    return PowerDelayProfile(np.array([power]))


def uniform_profile(n_taps: int, power: float = 1.0) -> PowerDelayProfile:
    """n_taps equal-power taps summing to the given total power."""
    if n_taps < 1:
        raise ValueError(f"n_taps must be >= 1, got {n_taps}")
    return PowerDelayProfile(np.full(n_taps, power / n_taps))


def exponential_profile(n_taps: int, power: float = 1.0, decay: float = 1.0) -> PowerDelayProfile:
    """Exponentially decaying taps, p_l ~ exp(-l/decay), summing to power."""
    if n_taps < 1:
        raise ValueError(f"n_taps must be >= 1, got {n_taps}")
    if decay <= 0:
        raise ValueError(f"decay must be > 0, got {decay}")
    shape = np.exp(-np.arange(n_taps) / decay)
    return PowerDelayProfile(power * shape / shape.sum())


def draw_channel(profile: PowerDelayProfile, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Block-fading realizations, one row per trial: zero-mean complex
    Gaussian taps of shape (trials, n_taps), real parts drawn first."""
    std = np.sqrt(profile.tap_powers / 2.0)
    shape = (trials, profile.n_taps)
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def frequency_response(taps, n: int) -> np.ndarray:
    """Per-bin response H[k] of each row: transform of the taps zero-padded to n."""
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim == 0 or taps.size == 0:
        raise ValueError("taps must be a non-empty array with taps on the last axis")
    if taps.shape[-1] > n:
        raise ValueError(f"channel has {taps.shape[-1]} taps, more than n={n} bins")
    padded = np.zeros(taps.shape[:-1] + (n,), dtype=np.complex128)
    padded[..., : taps.shape[-1]] = taps
    return dft(padded)


def linear_convolve(x, taps, length: int) -> np.ndarray:
    """Row-wise linear convolution of x with taps, truncated to `length` samples.

    With fewer taps than rows, each tap is one vectorized shift-and-add
    across all rows; otherwise each row is one `np.convolve`.  Both are the
    same time-domain sum and agree to rounding.
    """
    x = np.asarray(x, dtype=np.complex128)
    taps = np.asarray(taps, dtype=np.complex128)
    rows = np.broadcast_shapes(x.shape[:-1], taps.shape[:-1])
    out = np.zeros(rows + (length,), dtype=np.complex128)
    n_taps = min(taps.shape[-1], length)
    if n_taps <= math.prod(rows):
        for lag in range(n_taps):
            m = min(x.shape[-1], length - lag)
            out[..., lag:lag + m] += taps[..., lag:lag + 1] * x[..., :m]
        return out
    x = np.broadcast_to(x, rows + x.shape[-1:])
    taps = np.broadcast_to(taps, rows + taps.shape[-1:])
    for row in np.ndindex(rows):
        full = np.convolve(x[row], taps[row])[:length]
        out[row][: full.size] = full
    return out


def apply_channel(samples, taps, params: OfdmParams) -> np.ndarray:
    """Convolve prefix-extended rows with their channel taps.

    Linear convolution truncated to the input length; provided the cyclic
    prefix covers the channel memory, the prefix-free body then equals the
    cyclic convolution of the body with the zero-padded taps.  A memory
    beyond the prefix is rejected, since that identity fails there; links
    are held to the stricter `require_isi_free` by the config loader and
    the engine.
    """
    samples = require_extended(samples, params)
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.shape[-1] - 1 > params.cp_len:
        raise ValueError(
            f"inter-symbol interference: channel memory {taps.shape[-1] - 1} exceeds "
            f"cyclic prefix length {params.cp_len}"
        )
    return linear_convolve(samples, taps, samples.shape[-1])


def apply_cfo(samples, eps: float, params: OfdmParams) -> np.ndarray:
    """Multiply each row by the frequency-offset ramp exp(j2*pi*eps*n'/N).

    The sample index n' is referenced to the start of the prefix-free body
    (n' = 0 at the first body sample), matching the symbol synthesis
    convention.
    """
    samples = require_extended(samples, params)
    offsets = np.arange(samples.shape[-1]) - params.cp_len
    return samples * np.exp(2j * np.pi * eps * offsets / params.n_subcarriers)


def require_isi_free(cp_len: int, hop_taps, link: str) -> None:
    """The inter-symbol interference rule for a link of one or more hops.

    The cyclic prefix must hold at least as many samples as the link's hops
    have taps in total: cp_len >= L for the direct link and cp_len >= L1+L2
    for a relay.  The rule is conservative: the true channel memory is
    L - 1 and L1 + L2 - 2 samples.  `link` names the link in the message.
    """
    need = sum(hop_taps)
    if cp_len < need:
        raise ValueError(
            f"inter-symbol interference: {link} has {'+'.join(map(str, hop_taps))} taps "
            f"but the cyclic prefix holds {cp_len} samples; the rule is cp_len >= {need}"
        )


def standard_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex normals of `shape`, not yet scaled.

    One real block then one imaginary block of standard normals.  A path's
    noise is drawn even at noise_var = 0, so random streams stay aligned
    across runs that differ only in noise level.
    """
    noise = np.empty(shape, dtype=np.complex128)
    noise.real = rng.standard_normal(shape)
    noise.imag = rng.standard_normal(shape)
    return noise


def add_noise(samples, noise: np.ndarray, noise_var: float) -> np.ndarray:
    """Add `standard_noise` scaled to variance noise_var per sample."""
    if noise_var < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    out = noise * np.sqrt(noise_var / 2.0)
    out += samples
    return out

