"""Closed-form SNR and its exact CFO sensitivities over M + 1 branches.

With per-link average channel powers, per-bin noise variances, and
deterministic fractional offsets, the post-combining SNR of a direct link
plus M relay branches is

    SNR = sum_b f^2(e_b) a_b / sum_b [(1 - f^2(e_b)) a_b + s_b]

where f is the Dirichlet gain, e_b the offset of branch b, a_b its
coherent weight and s_b its noise.  Branch 0 is the direct link, with
a_0 = s_H1 s_X and s_0 = s_Z1; branch b >= 1 is relay b, with
a_b = rho_b^2 s_H2,b s_H3,b s_X and s_b = s_Z3,b + rho_b^2 s_Z2,b (the
relay's own noise arrives amplified by its gain rho_b).  The numerator
collects each branch's coherent power and the denominator the
inter-carrier leakage plus noise, branch by branch.  M = 1 is the
single-relay topology and M = 0 the point-to-point link.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .transforms import dirichlet_gain, dirichlet_gain_derivative


@dataclass(frozen=True)
class LinkStats:
    """Statistical description of a direct link plus M relay branches.

    The three sequences are indexed by branch, direct link first.
    """

    n_subcarriers: int
    branch_powers: tuple    # coherent weight a_b of each branch
    cfos: tuple             # fractional offset e_b of each branch
    noise_vars: tuple       # per-bin noise s_b arriving on each branch

    def __post_init__(self):
        if self.n_subcarriers < 2:
            raise ValueError(f"subcarrier count must be >= 2, got {self.n_subcarriers}")
        if not len(self.branch_powers) == len(self.cfos) == len(self.noise_vars) >= 1:
            raise ValueError("branch_powers, cfos and noise_vars need one entry per branch")
        if not all(a > 0 for a in self.branch_powers):
            raise ValueError("branch_powers must be > 0")
        if not all(s >= 0 for s in self.noise_vars):
            raise ValueError("noise_vars must be >= 0")
        if not all(abs(e) <= 0.5 for e in self.cfos):
            raise ValueError("cfos must lie in [-0.5, 0.5]")


@dataclass(frozen=True)
class SnrBreakdown:
    """Closed-form SNR with its numerator, denominator and slopes exposed.

    slopes[b] is the signed exact derivative dSNR/de_b; it is None at the
    den = 0 sentinel.
    """

    num: float
    den: float
    snr_linear: float
    snr_db: float
    slopes: tuple | None


def analytical_snr(stats: LinkStats) -> SnrBreakdown:
    """Closed-form SNR of the topology and its slope against each offset.

    Differentiating the ratio gives, per branch,

        dSNR/de_b = 2 f(e_b) f'(e_b) a_b (num + den) / den^2.
    """
    n = stats.n_subcarriers
    gains = [dirichlet_gain(eps, n) for eps in stats.cfos]
    num = den = 0.0
    for f, a, s in zip(gains, stats.branch_powers, stats.noise_vars):
        num += f ** 2 * a
        den += (1.0 - f ** 2) * a + s
    # den == 0 only in the noise-free zero-offset degenerate case; the
    # sentinel is a deliberate infinity, not an overflow.
    if den == 0.0:
        return SnrBreakdown(num, den, math.inf, math.inf, None)
    lin = num / den
    db = 10.0 * math.log10(lin) if lin > 0 else -math.inf
    slopes = tuple(
        2.0 * f * dirichlet_gain_derivative(eps, n) * a * (num + den) / den ** 2
        for f, eps, a in zip(gains, stats.cfos, stats.branch_powers)
    )
    return SnrBreakdown(num, den, lin, db, slopes)
