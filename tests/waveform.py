"""The time-domain waveform pipeline, kept as a test oracle for the engine.

`simulate_block` applies each channel as a per-bin product H[k]X[k], which
is exact when the cyclic prefix covers the channel memory.  This module
builds the waveform that identity stands for, sample by sample: modulate
(inverse transform, prefix insertion), linear convolution hop by hop, the
CFO ramp, prefix removal, one drawn noise body per branch, transform and
derotation.  It shares no arithmetic with the engine: its transforms are
numpy's, its leakage coefficient is the closed form `cfo_spectrum`, and it
draws the noise that the engine replaces by its conditional mean.

Signals are plain complex arrays whose last axis is time and whose leading
axis, when present, indexes trials; a prefix-extended row holds N + Ng
samples, and sample n = Ng is the start of the useful body.
"""
import math

import numpy as np

from afrelay.channel import require_isi_free
from afrelay.ofdm import CONSTELLATIONS, OfdmParams

# Below this the singular-denominator argument of the Dirichlet kernel is
# treated as zero and the removable singularity is evaluated by its limit.
_SINGULAR_ARG = 1e-9


def cfo_spectrum(eps: float, k: int, n: int) -> complex:
    """Leakage coefficient of a fractional CFO onto bin k.

    Equals the forward transform of the ramp (1/n)exp(j2*pi*eps*t/n) at
    bin k:

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


def modulate(symbols, params: OfdmParams) -> np.ndarray:
    """Inverse-transform each row of data symbols and insert the cyclic prefix.

    x[n] = (1/N) sum_k X[k] exp[j2*pi*k(n-Ng)/N] for 0 <= n <= N+Ng-1:
    returns samples of shape (..., N + cp_len), the prefix first.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim == 0 or symbols.shape[-1] != params.n_subcarriers:
        raise ValueError(
            f"expected {params.n_subcarriers} data symbols per row, got shape {symbols.shape}"
        )
    body = np.fft.ifft(symbols, axis=-1)
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

    Linear convolution truncated to the input length; under
    `require_isi_free` the prefix-free body then equals the cyclic
    convolution of the body with the zero-padded taps.
    """
    samples = require_extended(samples, params)
    taps = np.asarray(taps, dtype=np.complex128)
    require_isi_free(params.cp_len, [taps.shape[-1]], "the channel")
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


def standard_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex normals of `shape`, not yet scaled:
    one real block then one imaginary block of standard normals."""
    noise = np.empty(shape, dtype=np.complex128)
    noise.real = rng.standard_normal(shape)
    noise.imag = rng.standard_normal(shape)
    return noise


def replay_draws(params, hops, rng, trials):
    """The draws of one `simulate_block` call, replayed on `rng` in the
    documented order, symbols (trials, N) then each branch's taps hop by
    hop, `hops` holding each branch's profiles, followed by draws of the
    oracles' own: each branch's one noise body at (trials, N), which the
    engine integrates out and does not draw.  Every tap or noise block is
    drawn real part first.  Returns (symbols, taps, noise) with taps[b][i]
    those of branch b's hop i and noise[b] its noise, drawn even at s_b 0."""
    n = params.n_subcarriers
    table = CONSTELLATIONS[params.constellation] * np.sqrt(params.symbol_power)
    symbols = table[rng.integers(0, table.size, (trials, n))]
    taps = [[np.sqrt(p.tap_powers / 2.0) * standard_noise((trials, p.n_taps), rng)
             for p in link] for link in hops]
    noise = [standard_noise((trials, n), rng) for _ in hops]
    return symbols, taps, noise


def split_powers(spectrum, gain, symbols):
    """(signal, residual) power per trial of one branch: each bin of the
    received spectrum is derotated by conj(g)/|g| for its genie gain g
    and split into the coherent term |g| X and the remainder; where g is 0
    the derotation has phase 0, as in the engine."""
    magnitude = np.abs(gain)
    coherent = magnitude * symbols
    derotated = np.divide(spectrum * np.conj(gain), magnitude, out=spectrum.astype(np.complex128),
                          where=magnitude > 0)
    return (np.sum(np.abs(coherent) ** 2, axis=-1),
            np.sum(np.abs(derotated - coherent) ** 2, axis=-1))


def waveform_powers(params, hops, rho, stats, rng, trials):
    """(signal, residual) powers per trial of `simulate_block` at one point,
    point 0 of its arguments, rebuilt by running the waveform sample by
    sample.

    Per branch the modulated symbol passes each hop's linear convolution in
    turn, the CFO ramp of the branch offset, and the gain rho.  The
    destination removes the prefix, adds the branch's noise body at s_b / N
    per sample, neither convolved nor rotated, transforms, and
    splits each bin by `split_powers` with the genie gain
    g = rho C(eps, 0) prod H; powers add over branches.
    """
    n = params.n_subcarriers
    symbols, taps, noise = replay_draws(params, hops, rng, trials)
    tx = modulate(symbols, params)
    signal, residual = np.zeros(trials), np.zeros(trials)
    for branch_taps, z, eps, branch_rho, s in zip(taps, noise, stats.cfos[0], rho[0],
                                                   stats.noise_vars[0]):
        rx = tx
        for h in branch_taps:
            rx = apply_channel(rx, h, params)
        rx = branch_rho * apply_cfo(rx, eps, params)
        body = remove_cp(rx, params) + np.sqrt(s / n / 2.0) * z
        spectrum = np.fft.fft(body, axis=-1)
        response = np.prod([np.fft.fft(h, n, axis=-1) for h in branch_taps], axis=0)
        gain = branch_rho * cfo_spectrum(eps, 0, n) * response
        branch_signal, branch_residual = split_powers(spectrum, gain, symbols)
        signal += branch_signal
        residual += branch_residual
    return signal, residual
