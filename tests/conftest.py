"""Shared reference routes for the oracle tests.

These helpers deliberately avoid the code paths they are used to check:
`dft_direct` is a plain double loop, `circular_convolve` a direct cyclic
sum, `ici_reference` assembles a received spectrum from the closed-form
leakage coefficients instead of running the waveform pipeline,
`oracle_powers` rebuilds the simulator's per-trial powers from those
spectra, and `paper_snr`/`paper_snr_upa` write the paper's single-relay
SNR out term by term with the `math` module alone.
"""
import math

import numpy as np

from afrelay.ofdm import CONSTELLATIONS
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


def oracle_powers(params, direct, relays, rng, trials):
    """(signal, residual) powers per trial of `simulate_block` at one point,
    rebuilt without the waveform pipeline.

    Replays the documented draw order on `rng`: symbol indices, the direct
    taps, each relay's hop1 then hop2 taps, then per path the noise (relay
    noise before destination noise), each tap or noise block real part
    first.  Each branch spectrum is `ici_reference` of the symbols and the
    hops' response product, scaled by the branch gain rho, plus the
    transform of each noise source's prefix-free body scaled by its
    standard deviation; the relay noise is amplified by rho but neither
    convolved nor rotated.  Each bin is derotated by conj(g)/|g| for the
    genie gain g = rho C(eps, 0) prod H, and the signal |g||X| and the
    residual are summed over bins and branches.
    """
    n, cp = params.n_subcarriers, params.cp_len
    table = CONSTELLATIONS[params.constellation] * np.sqrt(params.symbol_power)
    symbols = table[rng.integers(0, table.size, (trials, n))]

    def complex_normals(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def taps(profile):
        return np.sqrt(profile.tap_powers / 2.0) * complex_normals((trials, profile.n_taps))

    hops = [[taps(direct.profile)]] + [[taps(r.hop1_profile), taps(r.hop2_profile)] for r in relays]
    branches = [(direct.cfo, 1.0, [(1.0, direct.noise_var)])] + [
        (r.cfo, r.rho, [(r.rho, r.relay_noise_var), (1.0, r.dest_noise_var)]) for r in relays
    ]
    signal, residual = np.zeros(trials), np.zeros(trials)
    for branch_hops, (eps, rho, sources) in zip(hops, branches):
        response = np.prod([np.fft.fft(h, n, axis=-1) for h in branch_hops], axis=0)
        spectra = np.array([ici_reference(symbols[t], response[t], eps, scale=rho)
                            for t in range(trials)])
        for amplitude, var in sources:
            body = complex_normals((trials, n + cp))[:, cp:]
            spectra = spectra + amplitude * np.sqrt(var / 2.0) * np.fft.fft(body, axis=-1)
        gain = rho * cfo_spectrum(eps, 0, n) * response
        coherent = np.abs(gain) * symbols
        signal += np.sum(np.abs(coherent) ** 2, axis=-1)
        derotated = spectra * np.conj(gain) / np.abs(gain)
        residual += np.sum(np.abs(derotated - coherent) ** 2, axis=-1)
    return signal, residual


def cgauss(rng, shape, var=1.0):
    """Circularly-symmetric complex Gaussian samples of the given variance."""
    return np.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _dirichlet_gain(eps, n):
    e = abs(eps)
    if e == 0.0:
        return 1.0
    return math.sin(math.pi * e) / (n * math.sin(math.pi * e / n))


def paper_snr(*, direct_gain_var, hop1_gain_var, hop2_gain_var, symbol_power,
              direct_noise_var, relay_noise_var, dest_noise_var, cfo_direct,
              cfo_relay, rho, n_subcarriers):
    """The paper's single-relay closed form as (num, den, num / den):

        num = f^2(e1) s_H1 s_X + rho^2 f^2(e2) s_H2 s_H3 s_X
        den = (1-f^2(e1)) s_H1 s_X + rho^2 (1-f^2(e2)) s_H2 s_H3 s_X
              + s_Z1 + rho^2 s_Z2 + s_Z3
    """
    f1 = _dirichlet_gain(cfo_direct, n_subcarriers)
    f2 = _dirichlet_gain(cfo_relay, n_subcarriers)
    a_direct = direct_gain_var * symbol_power
    a_relay = rho ** 2 * hop1_gain_var * hop2_gain_var * symbol_power
    num = f1 ** 2 * a_direct + f2 ** 2 * a_relay
    den = (
        (1.0 - f1 ** 2) * a_direct
        + (1.0 - f2 ** 2) * a_relay
        + direct_noise_var
        + rho ** 2 * relay_noise_var
        + dest_noise_var
    )
    return num, den, num / den


def paper_snr_upa(*, direct_gain_var, hop1_gain_var, hop2_gain_var, symbol_power,
                  direct_noise_var, relay_noise_var, dest_noise_var, cfo_direct,
                  cfo_relay, rho, n_subcarriers):
    """`paper_snr` in the high-power uniform-allocation limit, written with
    rho^2 = 1/hop1_gain_var already substituted: the relay branch weight
    collapses to hop2_gain_var * symbol_power and the amplified relay noise
    to relay_noise_var / hop1_gain_var.  rho is ignored."""
    f1 = _dirichlet_gain(cfo_direct, n_subcarriers)
    f2 = _dirichlet_gain(cfo_relay, n_subcarriers)
    a_direct = direct_gain_var * symbol_power
    a_relay = hop2_gain_var * symbol_power
    num = f1 ** 2 * a_direct + f2 ** 2 * a_relay
    den = (
        (1.0 - f1 ** 2) * a_direct
        + (1.0 - f2 ** 2) * a_relay
        + direct_noise_var
        + relay_noise_var / hop1_gain_var
        + dest_noise_var
    )
    return num, den, num / den
