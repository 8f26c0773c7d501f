"""Shared reference routes for the oracle tests.

These helpers deliberately avoid the code paths they are used to check:
`dft_direct` is a plain double loop, `circular_convolve` a direct cyclic
sum, `ici_reference` assembles a received spectrum from the closed-form
leakage coefficients instead of running the waveform pipeline,
`oracle_powers` rebuilds the simulator's per-trial powers from those
spectra (`waveform.waveform_powers` rebuilds them from the time-domain
pipeline instead), and `paper_snr`/`paper_snr_upa` write the paper's
single-relay SNR out term by term with the `math` module alone, and
`paper_gain` its Dirichlet gain.
`one_point` reads one point of a batched result, and `engine_inputs`
builds the engine's point table from per-branch values.
"""
import dataclasses
import math

import numpy as np

from afrelay.analysis import LinkStats
from waveform import cfo_spectrum, replay_draws, split_powers


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


def oracle_powers(params, hops, rho, stats, rng, trials):
    """(signal, residual) powers per trial of `simulate_block` at one point,
    point 0 of its arguments, rebuilt without the waveform pipeline.

    Replays the documented draw order on `rng` (`replay_draws`).  Each
    branch spectrum is `ici_reference` of the symbols and the hops'
    response product, scaled by the branch gain rho, plus the transform of
    the branch's noise body at s_b / N per sample, neither convolved nor
    rotated.  `split_powers` derotates each bin by the genie
    gain g = rho C(eps, 0) prod H and splits off the signal |g||X|; powers
    add over branches.
    """
    n = params.n_subcarriers
    symbols, taps, noise = replay_draws(params, hops, rng, trials)
    signal, residual = np.zeros(trials), np.zeros(trials)
    for branch_taps, z, eps, branch_rho, s in zip(taps, noise, stats.cfos[0], rho[0],
                                                   stats.noise_vars[0]):
        response = np.prod([np.fft.fft(h, n, axis=-1) for h in branch_taps], axis=0)
        spectra = np.array([ici_reference(symbols[t], response[t], eps, scale=branch_rho)
                            for t in range(trials)])
        spectra = spectra + np.sqrt(s / n / 2.0) * np.fft.fft(z, axis=-1)
        branch_signal, branch_residual = split_powers(
            spectra, branch_rho * cfo_spectrum(eps, 0, n) * response, symbols)
        signal += branch_signal
        residual += branch_residual
    return signal, residual


def one_point(result, p=0):
    """Point p of a batched `SnrBreakdown`: the same dataclass holding
    row p of each field."""
    return dataclasses.replace(result, **{field.name: getattr(result, field.name)[p]
                                          for field in dataclasses.fields(result)})


def engine_inputs(branches, n=64):
    """`simulate_block`'s (hops, rho, stats) at N = n from per-branch
    values, direct link first: each branch is (hops, cfos, rhos, noise),
    the last three holding one value per point, noise the closed form's
    s_b per bin.  The engine reads no branch power, so the stats carry
    placeholder ones there (a muted branch has none > 0)."""
    hops = [tuple(branch[0]) for branch in branches]
    cfo, rho, noise = (np.array([branch[i] for branch in branches], dtype=np.float64).T
                       for i in (1, 2, 3))
    return hops, rho, LinkStats(n, np.ones_like(rho), cfo, noise)


def record_transforms(monkeypatch):
    """Patch np.fft.fft and np.fft.ifft to log (name, length of the
    transformed axis) per call; returns the log."""
    calls = []
    for name in ("fft", "ifft"):
        def logged(*a, _f=getattr(np.fft, name), _name=name, **k):
            result = _f(*a, **k)
            calls.append((_name, result.shape[-1]))
            return result
        monkeypatch.setattr(np.fft, name, logged)
    return calls


def cgauss(rng, shape, var=1.0):
    """Circularly-symmetric complex Gaussian samples of the given variance."""
    return np.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def paper_gain(eps, n):
    """The Dirichlet gain f_N(eps) = |C(eps, 0)| of `paper_snr`, with `math`."""
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
    f1 = paper_gain(cfo_direct, n_subcarriers)
    f2 = paper_gain(cfo_relay, n_subcarriers)
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
    f1 = paper_gain(cfo_direct, n_subcarriers)
    f2 = paper_gain(cfo_relay, n_subcarriers)
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
