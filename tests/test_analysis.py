"""Closed-form SNR expressions, sensitivities, and reductions."""
import math

import numpy as np
import pytest

from afrelay.analysis import LinkStats, analytical_snr
from afrelay.relay import RelayGainConfig, gain_factor
from afrelay.transforms import dirichlet_gain
from conftest import one_point, paper_snr, paper_snr_upa

# Single-relay topologies are written in the paper's per-link quantities and
# mapped to the two-branch LinkStats by `single_relay`.
BASE = dict(
    direct_gain_var=1.0,
    hop1_gain_var=1.0,
    hop2_gain_var=4.0,
    symbol_power=1.0,
    direct_noise_var=0.1,
    relay_noise_var=0.1,
    dest_noise_var=0.1,
    cfo_direct=0.0,
    cfo_relay=0.0,
    rho=1.0,
    n_subcarriers=64,
)

# frozen from 40-digit evaluation at cfo_direct = 0.5 (direct-link gain
# 0.63668369272598...), remaining stats as in BASE
SNR_HALF_OFFSET = 4.92421117245392
NUM_HALF_OFFSET = 4.40536612458319
DEN_HALF_OFFSET = 0.894633875416807


def single_relay(fields, **updates) -> LinkStats:
    """One-point LinkStats of the single-relay topology given in BASE's
    fields: branch 0 the direct link, branch 1 the relay."""
    f = {**fields, **updates}
    rho_sq = f["rho"] ** 2
    return LinkStats(
        n_subcarriers=f["n_subcarriers"],
        branch_powers=[[
            f["direct_gain_var"] * f["symbol_power"],
            rho_sq * f["hop1_gain_var"] * f["hop2_gain_var"] * f["symbol_power"],
        ]],
        cfos=[[f["cfo_direct"], f["cfo_relay"]]],
        noise_vars=[[f["direct_noise_var"], f["dest_noise_var"] + rho_sq * f["relay_noise_var"]]],
    )


def closed_form(stats: LinkStats):
    """`analytical_snr` of one-point stats, read at that point."""
    return one_point(analytical_snr(stats))


def upa_limit(fields, **updates) -> dict:
    """The same fields with rho at its high-power uniform-allocation limit."""
    f = {**fields, **updates}
    rho = gain_factor(RelayGainConfig(mode="upa_asymptotic"), f["hop1_gain_var"], 0.0)
    return {**f, "rho": rho}


def lambdas(stats: LinkStats):
    """Absolute slopes against the direct and the relay offset."""
    slopes = closed_form(stats).slopes
    return abs(slopes[0]), abs(slopes[1])


def random_stats(rng, n=64, eps_lo=0.05, eps_hi=0.4) -> dict:
    sign = lambda: rng.choice([-1.0, 1.0])
    return dict(
        direct_gain_var=rng.uniform(0.3, 3.0),
        hop1_gain_var=rng.uniform(0.3, 3.0),
        hop2_gain_var=rng.uniform(0.3, 6.0),
        symbol_power=rng.uniform(0.5, 2.0),
        direct_noise_var=rng.uniform(0.01, 0.5),
        relay_noise_var=rng.uniform(0.01, 0.5),
        dest_noise_var=rng.uniform(0.01, 0.5),
        cfo_direct=sign() * rng.uniform(eps_lo, eps_hi),
        cfo_relay=sign() * rng.uniform(eps_lo, eps_hi),
        rho=rng.uniform(0.4, 2.0),
        n_subcarriers=n,
    )


# ------------------------------------------------------------- single relay SNR

def test_snr_hand_value_at_zero_offsets():
    out = closed_form(single_relay(BASE))
    assert out.num == pytest.approx(5.0, abs=1e-15)
    assert out.den == pytest.approx(0.3, abs=1e-15)
    assert out.snr_linear == pytest.approx(5.0 / 0.3, rel=1e-14)
    assert out.snr_db == pytest.approx(12.2184874961636, abs=1e-10)


def test_snr_hand_value_at_half_offset():
    out = closed_form(single_relay(BASE, cfo_direct=0.5))
    assert out.num == pytest.approx(NUM_HALF_OFFSET, rel=1e-13)
    assert out.den == pytest.approx(DEN_HALF_OFFSET, rel=1e-13)
    assert out.snr_linear == pytest.approx(SNR_HALF_OFFSET, rel=1e-13)


def test_snr_maximized_only_at_zero_offsets():
    best = closed_form(single_relay(BASE)).snr_linear
    rng = np.random.default_rng(0)
    for _ in range(100):
        e1, e2 = rng.uniform(-0.45, 0.45, 2)
        if e1 == 0.0 and e2 == 0.0:
            continue
        value = closed_form(single_relay(BASE, cfo_direct=e1, cfo_relay=e2)).snr_linear
        assert value < best


def test_snr_decreases_along_each_axis():
    grid = np.linspace(0.0, 0.45, 10)
    along_direct = [closed_form(single_relay(BASE, cfo_direct=e)).snr_linear for e in grid]
    along_relay = [closed_form(single_relay(BASE, cfo_relay=e)).snr_linear for e in grid]
    assert np.all(np.diff(along_direct) < 0)
    assert np.all(np.diff(along_relay) < 0)


def test_snr_even_in_each_offset():
    stats = dict(BASE, cfo_direct=0.23, cfo_relay=0.37)
    ref = closed_form(single_relay(stats)).snr_linear
    assert closed_form(single_relay(stats, cfo_direct=-0.23)).snr_linear == ref
    assert closed_form(single_relay(stats, cfo_relay=-0.37)).snr_linear == ref


def test_noise_free_zero_offset_returns_infinity_sentinel():
    stats = single_relay(BASE, direct_noise_var=0.0, relay_noise_var=0.0, dest_noise_var=0.0)
    out = closed_form(stats)
    assert out.den == 0.0
    assert math.isinf(out.snr_linear) and math.isinf(out.snr_db)
    assert np.all(np.isnan(out.slopes))


def test_stats_validation():
    with pytest.raises(ValueError):
        single_relay(BASE, direct_gain_var=0.0)
    with pytest.raises(ValueError):
        single_relay(BASE, direct_noise_var=-0.1)
    with pytest.raises(ValueError):
        single_relay(BASE, cfo_direct=0.6)
    with pytest.raises(ValueError):
        single_relay(BASE, rho=0.0)


def test_stats_need_one_entry_per_branch_and_two_subcarriers():
    with pytest.raises(ValueError, match="one entry per branch"):
        LinkStats(64, [[1.0, 4.0]], [[0.0]], [[0.1, 0.2]])
    with pytest.raises(ValueError, match="one entry per branch"):
        LinkStats(64, [[]], [[]], [[]])
    with pytest.raises(ValueError, match="subcarrier"):
        LinkStats(1, [[1.0]], [[0.0]], [[0.1]])
    with pytest.raises(ValueError):
        LinkStats(64, [[1.0, math.nan]], [[0.0, 0.1]], [[0.1, 0.1]])


def test_degradation_grows_as_noise_shrinks():
    # dB gap between the zero-offset point and (0.2, 0.2) is non-decreasing
    # as every noise variance scales down
    gaps = []
    for t in (1.0, 0.1, 0.01):
        scaled = dict(
            BASE,
            direct_noise_var=0.1 * t,
            relay_noise_var=0.1 * t,
            dest_noise_var=0.1 * t,
        )
        at_zero = closed_form(single_relay(scaled)).snr_db
        at_offset = closed_form(single_relay(scaled, cfo_direct=0.2, cfo_relay=0.2)).snr_db
        gaps.append(at_zero - at_offset)
    assert gaps[0] <= gaps[1] <= gaps[2]


# -------------------------------------------------------- uniform power variant

def test_upa_form_equals_substituted_general_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        stats = random_stats(rng)
        _, _, via_upa = paper_snr_upa(**stats)
        via_substitution = closed_form(single_relay(upa_limit(stats)))
        assert via_upa == pytest.approx(via_substitution.snr_linear, rel=1e-12)


def test_upa_zero_offset_reduction():
    stats = dict(
        BASE, direct_noise_var=0.1, relay_noise_var=0.2, dest_noise_var=0.3
    )  # hop1_gain_var = 1, so the amplified relay noise stays 0.2
    out = closed_form(single_relay(upa_limit(stats)))
    assert out.snr_linear == pytest.approx((1.0 + 4.0) / (0.1 + 0.2 + 0.3), rel=1e-14)


def test_upa_relay_branch_dominates_numerator_by_power_ratio():
    out = closed_form(single_relay(upa_limit(BASE, cfo_direct=0.3, cfo_relay=0.3)))
    f_sq = out.num / (1.0 + 4.0)  # common squared gain factor at equal offsets
    assert out.num == pytest.approx(f_sq * 1.0 + 4.0 * f_sq, rel=1e-14)


def test_upa_pins_rho_at_inverse_root_first_hop_power():
    stats = dict(BASE, hop1_gain_var=2.0, rho=17.0)  # rho is ignored by the limit form
    pinned = upa_limit(stats)
    assert pinned["rho"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert paper_snr_upa(**stats)[2] == pytest.approx(
        closed_form(single_relay(pinned)).snr_linear, rel=1e-12
    )


# ---------------------------------------------------------------- sensitivities

def finite_difference_slopes(stats, h=1e-6):
    def snr(**updates):
        return closed_form(single_relay(stats, **updates)).snr_linear

    d1 = (snr(cfo_direct=stats["cfo_direct"] + h) - snr(cfo_direct=stats["cfo_direct"] - h)) / (2 * h)
    d2 = (snr(cfo_relay=stats["cfo_relay"] + h) - snr(cfo_relay=stats["cfo_relay"] - h)) / (2 * h)
    return abs(d1), abs(d2)


def test_sensitivities_vanish_at_zero_offsets():
    lambda1, lambda2 = lambdas(single_relay(BASE))
    assert lambda1 == 0.0 and lambda2 == 0.0


def test_chain_rule_matches_finite_differences_at_fixed_point():
    stats = dict(BASE, cfo_direct=0.2, cfo_relay=0.1)
    lambda1, lambda2 = lambdas(single_relay(stats))
    fd1, fd2 = finite_difference_slopes(stats)
    assert abs(lambda1 - fd1) / fd1 < 1e-6
    assert abs(lambda2 - fd2) / fd2 < 1e-6


def test_chain_rule_matches_finite_differences_on_random_stats():
    rng = np.random.default_rng(2)
    for _ in range(50):
        stats = random_stats(rng)
        lambda1, lambda2 = lambdas(single_relay(stats))
        fd1, fd2 = finite_difference_slopes(stats)
        assert abs(lambda1 - fd1) / fd1 < 1e-6
        assert abs(lambda2 - fd2) / fd2 < 1e-6


def test_slopes_stay_finite_at_the_largest_accepted_powers():
    # the SNR and its slopes are invariant when every power and noise scales
    # together; at 1e306 den^2 would overflow although each slope is finite
    stats = dict(BASE, cfo_direct=0.2, cfo_relay=0.4)
    base = closed_form(single_relay(stats)).slopes
    huge = closed_form(single_relay(stats, **{k: stats[k] * 1e306 for k in (
        "symbol_power", "direct_noise_var", "relay_noise_var", "dest_noise_var")})).slopes
    assert np.all(np.isfinite(huge))
    assert huge == pytest.approx(base, rel=1e-12)


def test_slopes_carry_the_sign_of_the_offset():
    slopes = closed_form(single_relay(BASE, cfo_direct=0.2, cfo_relay=-0.1)).slopes
    assert slopes[0] < 0.0 < slopes[1]


def test_sensitivity_ratio_is_exactly_the_power_ratio():
    # equal offsets, high-power uniform allocation, second hop at 4x the
    # direct link's power: the relay slope is exactly 4x the direct slope
    lambda1, lambda2 = lambdas(single_relay(upa_limit(BASE, cfo_direct=0.2, cfo_relay=0.2)))
    assert lambda2 / lambda1 == 4.0


# ------------------------------------------------------------------ multi relay

def test_empty_branch_list_reduces_to_point_to_point():
    out = closed_form(LinkStats(64, [[2.0 * 1.5]], [[0.3]], [[0.4]]))
    f = dirichlet_gain(np.array([0.3]), 64)[0]
    expected = (f ** 2 * 2.0 * 1.5) / ((1 - f ** 2) * 2.0 * 1.5 + 0.4)
    assert out.snr_linear == pytest.approx(expected, rel=1e-14)


def test_single_branch_reduces_to_single_relay_formula():
    rng = np.random.default_rng(3)
    for _ in range(100):
        stats = random_stats(rng)
        num, den, snr = paper_snr(**stats)
        out = closed_form(single_relay(stats))
        assert out.snr_linear == pytest.approx(snr, rel=1e-12)
        assert out.num == pytest.approx(num, rel=1e-12)
        assert out.den == pytest.approx(den, rel=1e-12)


def test_duplicate_branch_doubles_branch_contributions():
    # direct link and one relay branch: rho = 0.9, hops 1 and 4, offset 0.25,
    # relay noise 0.1 amplified by rho^2, destination noise 0.2
    relay = (0.9 ** 2 * 1.0 * 4.0, 0.25, 0.2 + 0.9 ** 2 * 0.1)

    def with_relays(m):
        branches = [(1.0, 0.1, 0.1)] + [relay] * m
        return closed_form(LinkStats(64, *([list(col)] for col in zip(*branches))))

    none, one, two = with_relays(0), with_relays(1), with_relays(2)
    assert two.num - none.num == pytest.approx(2.0 * (one.num - none.num), rel=1e-14)
    assert two.den - none.den == pytest.approx(2.0 * (one.den - none.den), rel=1e-14)


# ------------------------------------------------------------ point axis

def random_branches(rng, points, branches):
    """Random (points, branches) stats with offsets covering the edges."""
    eps = rng.uniform(-0.5, 0.5, (points, branches))
    eps[0, :] = 0.0
    eps[1, ::2] = 0.5
    return LinkStats(
        64,
        rng.uniform(0.1, 5.0, (points, branches)),
        eps,
        rng.uniform(0.0, 0.5, (points, branches)),
    )


def test_point_axis_equals_one_point_evaluations():
    stats = random_branches(np.random.default_rng(4), 40, 3)
    batch = analytical_snr(stats)
    assert batch.slopes.shape == (40, 3)
    for i in range(40):
        one = closed_form(LinkStats(64, stats.branch_powers[i:i + 1], stats.cfos[i:i + 1],
                                    stats.noise_vars[i:i + 1]))
        assert (one.num, one.den, one.snr_linear, one.snr_db) == (
            batch.num[i], batch.den[i], batch.snr_linear[i], batch.snr_db[i])
        assert np.array_equal(one.slopes, batch.slopes[i])


@pytest.mark.parametrize("branches", [1, 2, 8, 11, 17])
def test_branches_are_summed_in_branch_order(branches):
    # one addition after another in branch order, bitwise, for any branch
    # count (a pairwise sum would round differently from 8 terms on)
    stats = random_branches(np.random.default_rng(branches), 30, branches)
    out = analytical_snr(stats)
    for i in range(30):
        num = den = 0.0
        for a, e, s in zip(stats.branch_powers[i], stats.cfos[i], stats.noise_vars[i]):
            f = dirichlet_gain(e, 64)
            num += f * f * a
            den += (1.0 - f * f) * a + s
        assert (out.num[i], out.den[i]) == (num, den)


def test_point_axis_sentinel_is_per_point():
    rng = np.random.default_rng(5)
    stats = random_branches(rng, 6, 3)
    silent = LinkStats(64, stats.branch_powers, stats.cfos, np.zeros((6, 3)))
    out = analytical_snr(silent)
    assert out.den[0] == 0.0 and out.snr_linear[0] == out.snr_db[0] == math.inf
    assert np.all(np.isnan(out.slopes[0]))
    assert np.all(np.isfinite(out.snr_db[1:])) and np.all(np.isfinite(out.slopes[1:]))
    assert np.all(np.isnan(closed_form(LinkStats(64, silent.branch_powers[:1], silent.cfos[:1],
                                                 silent.noise_vars[:1])).slopes))


def test_point_axis_stats_validation():
    stats = random_branches(np.random.default_rng(6), 4, 2)
    good = (stats.branch_powers, stats.cfos, stats.noise_vars)
    for field, bad, message in [
        (0, -1.0, "branch_powers must be > 0"),
        (0, math.nan, "branch_powers must be > 0"),
        (2, -0.1, "noise_vars must be >= 0"),
        (2, math.nan, "noise_vars must be >= 0"),
        (1, 0.6, r"cfos must lie in \[-0.5, 0.5\]"),
        (1, math.nan, r"cfos must lie in \[-0.5, 0.5\]"),
    ]:
        fields = [np.array(f) for f in good]
        fields[field][3, 1] = bad
        with pytest.raises(ValueError, match=message):
            LinkStats(64, *fields)
    with pytest.raises(ValueError, match="one entry per branch"):
        LinkStats(64, stats.branch_powers, stats.cfos[:, :1], stats.noise_vars)
    with pytest.raises(ValueError, match="one entry per branch"):
        LinkStats(64, *(np.zeros((4, 0)),) * 3)
    with pytest.raises(ValueError, match="one entry per branch"):
        LinkStats(64, *(f[None] for f in good))
