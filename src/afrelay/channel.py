"""Random multipath channels, a branch's frequency response and the ISI rule.

Channels are block fading: one tap realization per OFDM symbol, taps drawn
as independent circularly-symmetric complex Gaussians (Rayleigh-magnitude
fading) with per-tap variances given by a power delay profile.  The
functions work on whole blocks of trials: the leading axis indexes trials
and the last axis holds taps, bins or samples.  `branch_response` is the
one place a response is formed: a one-tap (flat) hop's response is one
(..., 1) column, its tap on every bin, any other hop's is its zero-padded
`np.fft.fft`, and a relay's two short multi-tap hops are first convolved
into one through a short power-of-two transform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    with np.errstate(over="ignore"):  # a subnormal decay sends -l/decay to -inf, exp to 0
        shape = np.exp(-np.arange(n_taps) / decay)
    return PowerDelayProfile(power * shape / shape.sum())


def draw_channel(profile: PowerDelayProfile, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Block-fading realizations, one row per trial: zero-mean complex
    Gaussian taps of shape (trials, n_taps), real parts drawn first."""
    std = np.sqrt(profile.tap_powers / 2.0)
    shape = (trials, profile.n_taps)
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def branch_response(taps, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per-bin response of a branch from its hops' tap blocks: the product
    of their responses in hop order, in place once it spans the bins.  A
    one-tap hop's response is its (..., 1) column, exactly H[k] = h[0] on
    every bin, and any other hop's is the transform of its taps zero-padded
    to n (by hand: numpy's own padding is slower), first into `out` if
    given, a (..., n) complex array; more taps than bins raise `ValueError`.
    Two multi-tap hops are first convolved, exactly, by m-point transforms,
    m the power of two >= L1 + L2 - 1, while 4 m <= n (the crossover
    measured end to end at n = 64, 256 and 1024).  A flat branch's (..., 1)
    column is a copy, not written into `out`."""
    if len(taps) == 2 and min(h.shape[-1] for h in taps) > 1:
        length = taps[0].shape[-1] + taps[1].shape[-1] - 1
        m = 1 << (length - 1).bit_length()
        if 4 * m <= n:
            spectrum = np.fft.fft(taps[0], m, axis=-1) * np.fft.fft(taps[1], m, axis=-1)
            taps = [np.fft.ifft(spectrum, axis=-1)[..., :length]]
    response, free = None, out  # `free`: no response is held there yet
    for h in taps:  # in place: one more live (..., n) array slows large blocks
        if h.shape[-1] > n:  # np.fft.fft would drop the taps beyond n
            raise ValueError(f"channel has {h.shape[-1]} taps, more than n={n} bins")
        hop = h
        if h.shape[-1] > 1:
            hop, free = np.empty(h.shape[:-1] + (n,), np.complex128) if free is None else free, None
            hop[..., h.shape[-1]:] = 0
            hop[..., :h.shape[-1]] = h
            np.fft.fft(hop, axis=-1, out=hop)
        response = (h.copy() if hop is h else hop) if response is None else np.multiply(
            response, hop, out=hop if hop.shape[-1] > response.shape[-1] else response)
    return response


def require_isi_free(cp_len: int, hop_taps, link: str) -> None:
    """The inter-symbol interference rule for a link of one or more hops.

    The cyclic prefix must cover the link's channel memory, the sum of
    L - 1 over its hops: L - 1 samples on the direct link, L1 + L2 - 2 on a
    relay.  A relay's convolved cascade of L1 + L2 - 1 taps has the same
    memory, so its hops and its cascade get the same answer.  `link` names
    the link in the message.
    """
    memory = sum(hop_taps) - len(hop_taps)
    if memory > cp_len:
        raise ValueError(
            f"inter-symbol interference: {link} has {'+'.join(map(str, hop_taps))} taps, "
            f"memory {memory} beyond the cyclic prefix length {cp_len}"
        )

