"""OFDM symbol construction and deconstruction.

One symbol is synthesized as x[n] = (1/N) sum_k X[k] exp[j2*pi*k(n-Ng)/N]
for 0 <= n <= N+Ng-1, i.e. the inverse transform of the data vector with
its last Ng samples copied in front as a cyclic prefix.  Sample n = Ng is
the start of the useful body; every downstream frequency-offset ramp uses
the same reference.

Signals are plain complex arrays whose last axis is time and whose leading
axis, when present, indexes trials; a prefix-extended row holds N + Ng
samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transforms import idft

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])
# unit average power for equiprobable points
_QAM16 = (_QAM16_LEVELS[:, None] + 1j * _QAM16_LEVELS[None, :]).ravel() / np.sqrt(10.0)

CONSTELLATIONS = {"qpsk": _QPSK, "qam16": _QAM16}


@dataclass(frozen=True)
class OfdmParams:
    """Static modulation parameters shared by every trial."""

    n_subcarriers: int = 64
    cp_len: int = 16
    constellation: str = "qpsk"
    symbol_power: float = 1.0

    def __post_init__(self):
        if self.n_subcarriers < 8:
            raise ValueError(f"n_subcarriers must be >= 8, got {self.n_subcarriers}")
        if not 0 <= self.cp_len < self.n_subcarriers:
            raise ValueError(
                f"cp_len must satisfy 0 <= cp_len < n_subcarriers, got {self.cp_len}"
            )
        if self.constellation not in list(CONSTELLATIONS):  # a list compares unhashable values too
            raise ValueError(
                f"unknown constellation {self.constellation!r}, "
                f"expected one of {sorted(CONSTELLATIONS)}"
            )
        if not self.symbol_power > 0:
            raise ValueError(f"symbol_power must be > 0, got {self.symbol_power}")


def draw_symbols(params: OfdmParams, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Draw a (trials, N) block of i.i.d. uniform constellation points.

    Points are scaled so the constellation's average power equals
    params.symbol_power (exact per point for QPSK).
    """
    table = CONSTELLATIONS[params.constellation] * np.sqrt(params.symbol_power)
    idx = rng.integers(0, table.size, (trials, params.n_subcarriers))
    return table[idx]


def modulate(symbols, params: OfdmParams) -> np.ndarray:
    """Inverse-transform each row of data symbols and insert the cyclic prefix.

    Returns samples of shape (..., N + cp_len), the prefix first.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim == 0 or symbols.shape[-1] != params.n_subcarriers:
        raise ValueError(
            f"expected {params.n_subcarriers} data symbols per row, got shape {symbols.shape}"
        )
    body = idft(symbols)
    return np.concatenate([body[..., body.shape[-1] - params.cp_len:], body], axis=-1)


def require_extended(samples, params: OfdmParams) -> np.ndarray:
    """Check that the last axis holds one prefix-extended symbol, N + cp_len samples."""
    samples = np.asarray(samples, dtype=np.complex128)
    expected = params.n_subcarriers + params.cp_len
    if samples.ndim == 0 or samples.shape[-1] != expected:
        raise ValueError(
            f"expected {expected} samples per row (N={params.n_subcarriers} + "
            f"Ng={params.cp_len}), got shape {samples.shape}"
        )
    return samples


def remove_cp(samples, params: OfdmParams) -> np.ndarray:
    """Strip the cyclic prefix, keeping the last n_subcarriers samples of each row."""
    return require_extended(samples, params)[..., params.cp_len:]
