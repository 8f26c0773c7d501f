"""OFDM numerology and symbol draws.

`OfdmParams` fixes the subcarrier count N, the cyclic-prefix length Ng,
the constellation and the symbol power; `draw_symbols` draws a block of
data symbols X[k].  The engine never synthesizes the time-domain symbol:
with a prefix that covers the channel memory, the inverse transform with
its prefix, the channel convolution and prefix removal reduce to the
per-bin product H[k]X[k] (the time-domain pipeline runs as a test oracle,
`tests/waveform.py`).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

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
        if self.n_subcarriers > sys.float_info.max:  # the closed form reads N as a float
            raise ValueError(f"n_subcarriers must lie in the float range, got {self.n_subcarriers}")
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


def draw_symbols(params: OfdmParams, rng: np.random.Generator, trials: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Draw a (trials, N) block of i.i.d. uniform constellation points,
    into `out` if given, a (trials, N) complex array.

    Points are scaled so the constellation's average power equals
    params.symbol_power (exact per point for QPSK).
    """
    table = CONSTELLATIONS[params.constellation] * np.sqrt(params.symbol_power)
    idx = rng.integers(0, table.size, (trials, params.n_subcarriers))
    # every index is in range, so "clip" changes nothing; unlike the default
    # "raise", it writes straight into `out` rather than through a copy
    return np.take(table, idx, out=out, mode="clip")
