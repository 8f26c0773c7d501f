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

from dataclasses import dataclass

import numpy as np

from .transforms import dirichlet_gain, dirichlet_gain_derivative


@dataclass(frozen=True)
class LinkStats:
    """Statistical description of a direct link plus M relay branches.

    The three sequences are indexed by branch, direct link first; as
    (P, M + 1) arrays their leading axis runs over P points.
    """

    n_subcarriers: int
    branch_powers: tuple | np.ndarray   # coherent weight a_b of each branch
    cfos: tuple | np.ndarray            # fractional offset e_b of each branch
    noise_vars: tuple | np.ndarray      # per-bin noise s_b arriving on each branch

    def __post_init__(self):
        if self.n_subcarriers < 2:
            raise ValueError(f"subcarrier count must be >= 2, got {self.n_subcarriers}")
        shapes = {np.shape(v) for v in (self.branch_powers, self.cfos, self.noise_vars)}
        shape = shapes.pop()
        if shapes or len(shape) not in (1, 2) or shape[-1] < 1:
            raise ValueError("branch_powers, cfos and noise_vars need one entry per branch")
        if not np.all(np.asarray(self.branch_powers) > 0):
            raise ValueError("branch_powers must be > 0")
        if not np.all(np.asarray(self.noise_vars) >= 0):
            raise ValueError("noise_vars must be >= 0")
        if not np.all(np.abs(self.cfos) <= 0.5):
            raise ValueError("cfos must lie in [-0.5, 0.5]")

    def point(self, i: int) -> LinkStats:
        """Point i of stats with a leading point axis."""
        return LinkStats(self.n_subcarriers, self.branch_powers[i], self.cfos[i], self.noise_vars[i])


@dataclass(frozen=True)
class SnrBreakdown:
    """Closed-form SNR with its numerator, denominator and slopes exposed.

    slopes[..., b] is the signed exact derivative dSNR/de_b.  One-point
    stats give floats and a slopes tuple, None at the den = 0 sentinel;
    stats with a point axis give arrays, with NaN slopes at the sentinel.
    """

    num: float | np.ndarray
    den: float | np.ndarray
    snr_linear: float | np.ndarray
    snr_db: float | np.ndarray
    slopes: tuple | np.ndarray | None


def analytical_snr(stats: LinkStats) -> SnrBreakdown:
    """Closed-form SNR of the topology and its slope against each offset,
    at every point of the stats in one evaluation.

    Differentiating the ratio gives, per branch,

        dSNR/de_b = 2 f(e_b) f'(e_b) a_b (num + den) / den^2.
    """
    n = stats.n_subcarriers
    # one-point stats are one row, so both shapes agree bitwise
    eps, a, s = (np.atleast_2d(np.asarray(v, dtype=np.float64))
                 for v in (stats.cfos, stats.branch_powers, stats.noise_vars))
    f = dirichlet_gain(eps, n)
    # `sum` adds the branch columns in branch order; np.sum adds 8 or more
    # terms pairwise, which would round differently
    num = sum((f ** 2 * a).T)
    den = sum(((1.0 - f ** 2) * a + s).T)
    # den == 0 only in the noise-free zero-offset degenerate case; the
    # sentinel is a deliberate infinity, not an overflow.
    sentinel = den == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = np.where(sentinel, np.inf, num / den)
        db = np.where(lin > 0, 10.0 * np.log10(lin), -np.inf)
        slopes = (2.0 * f * dirichlet_gain_derivative(eps, n) * a * (num + den)[:, None]
                  / (den ** 2)[:, None])
    slopes[sentinel] = np.nan
    if np.ndim(stats.cfos) == 2:
        return SnrBreakdown(num, den, lin, db, slopes)
    return SnrBreakdown(float(num[0]), float(den[0]), float(lin[0]), float(db[0]),
                        None if sentinel[0] else tuple(slopes[0].tolist()))
