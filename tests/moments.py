"""Exact moments of the per-trial powers for flat-fading QPSK branches,
kept as a test reference for the estimator's standard error.

For QPSK every symbol has |X|^2 = s_X and E X^2 = 0, and a flat branch b
has one gain g_b = prod |h_i|^2 over its Rayleigh hops, with E g_b =
prod P_i and E g_b^2 = prod 2 P_i^2, so Var g_b = k_b (E g_b)^2 for
k_b = 2^hops - 1.  A trial's powers are then

    signal   = N s_X sum_b rho_b^2 f_b^2 g_b          (||X||^2 = N s_X)
    residual = N sum_b (s_b + rho_b^2 g_b L_b),  L_b = sum_n |W_b[n]|^2 |x_n|^2

for f_b = |C(e_b, 0)|, W_b the branch's CFO ramp minus C(e_b, 0) and x the
inverse transform of the symbols, which every branch shares.  From
E |x_n|^2 |x_m|^2 = s_X^2 (N^2 + N^2 d_nm - N) / N^4 and
sum_n |W_b[n]|^2 = N (1 - f_b^2):

    E L_b     = s_X (1 - f_b^2)
    E L_b L_c = s_X^2 [(1 - 1/N)(1 - f_b^2)(1 - f_c^2) + sum_n |W_b|^2 |W_c|^2 / N^2]

The gains are independent across branches and of the symbols, so with
a_b = rho_b^2 s_X E g_b, the closed form's coherent power, the means,
variances and covariance of (signal, residual) follow, and the
estimator's delta-method standard error tends to

    (10 / ln 10) sqrt(Var s / m_s^2 + Var r / m_r^2 - 2 Cov / (m_s m_r)) / sqrt(T).

It shares no arithmetic with the engine or the estimator: f_b and W_b come
from `waveform.cfo_spectrum`, and a_b and s_b from the config's point
table.
"""
import math

import numpy as np

from afrelay.harness import point_inputs
from waveform import cfo_spectrum


def exact_stderr_db(cfg) -> np.ndarray:
    """The (P,) exact standard error in dB of `run_sweep`'s empirical SNR
    at each sweep point of `cfg`, whose hops must all be flat and whose
    constellation must be QPSK (`ValueError` otherwise)."""
    if cfg.ofdm.constellation != "qpsk" or any(
            hop.n_taps != 1 for link in cfg.links for hop in link.hops):
        raise ValueError("the exact moments need QPSK symbols and flat hops")
    n = cfg.ofdm.n_subcarriers
    stats, _ = point_inputs(cfg)
    kappa = np.array([2.0 ** len(link.hops) - 1.0 for link in cfg.links])  # Var g / (E g)^2
    ramp = np.arange(n) / n
    out = []
    for a, eps, s in zip(stats.branch_powers, stats.cfos, stats.noise_vars):
        c = np.array([cfo_spectrum(e, 0, n) for e in eps])
        w2 = np.abs(np.exp(2j * np.pi * np.outer(eps, ramp)) - c[:, None]) ** 2  # |W_b[n]|^2
        f2 = np.abs(c) ** 2
        lost = a * (1.0 - f2)  # the coherent power the offset moves to the residual
        # per unit N: E and Var of the signal, E of the residual
        mean_s, var_s = np.sum(f2 * a), np.sum(kappa * (f2 * a) ** 2)
        mean_r = np.sum(s) + np.sum(lost)
        # E[g_b g_c] / (E g_b E g_c) = 1 + k_b d_bc, times E[L_b L_c] / s_X^2 as above
        ll = (1.0 - 1.0 / n) * np.outer(1.0 - f2, 1.0 - f2) + w2 @ w2.T / n ** 2
        var_r = np.sum(np.outer(a, a) * (1.0 + np.diag(kappa)) * ll) - np.sum(lost) ** 2
        cov = np.sum(kappa * f2 * a * lost)
        var_log = var_s / mean_s ** 2 + var_r / mean_r ** 2 - 2.0 * cov / (mean_s * mean_r)
        out.append(10.0 / math.log(10.0) * math.sqrt(var_log / cfg.trials))
    return np.array(out)
