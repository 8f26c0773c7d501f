"""Relay gain rules and the block engine `simulate_block`: its trials
against two independent per-trial oracles (the closed-form spectrum and
the time-domain waveform) and exact cases, its preconditions and its
bitwise invariants across points."""
import copy
import dataclasses
import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afrelay.analysis import LinkStats
from afrelay.channel import (
    PowerDelayProfile,
    draw_channel,
    exponential_profile,
    flat_profile,
    uniform_profile,
)
from afrelay.harness import PRESETS, block_size, config_from_dict, point_inputs
from afrelay.ofdm import OfdmParams, draw_symbols
from afrelay.relay import RelayGainConfig, gain_factor, simulate_block, sweep_plan
from conftest import engine_inputs, oracle_powers, paper_gain, record_transforms
from waveform import apply_cfo, apply_channel, modulate, waveform_powers

PARAMS = OfdmParams(n_subcarriers=64, cp_len=16)
FLAT = flat_profile(1.0)
# a direct link whose taps are all zero: its genie gain is zero at every
# bin and, without noise, it adds nothing to either power
MUTED = PowerDelayProfile(np.array([0.0]))


def _tx(seed, params=PARAMS):
    rng = np.random.default_rng(seed)
    sym = draw_symbols(params, rng, 1)
    return sym, modulate(sym, params)


def _draws(seed, profiles, trials):
    """The symbols and tap realizations a block draws first from
    default_rng(seed): symbols, then one tap block per profile in order."""
    rng = np.random.default_rng(seed)
    return draw_symbols(PARAMS, rng, trials), [draw_channel(p, rng, trials) for p in profiles]


def _simulate(branches, seed, trials, params=PARAMS):
    """`simulate_block` on the plan of the table of per-branch values
    (`engine_inputs`) and default_rng(seed)."""
    return _run(engine_inputs(branches, params.n_subcarriers), seed, trials, params)


def _run(table, seed, trials, params=PARAMS):
    """`simulate_block` on the plan of the engine's (hops, rho, stats)
    table and default_rng(seed), or on `seed` itself when it is a
    generator."""
    return simulate_block(sweep_plan(params, *table), np.random.default_rng(seed), trials)


def _oracle_error(branches, seed, trials, params=PARAMS):
    """Worst relative error of a block's powers against both oracles,
    `oracle_powers` and the time-domain `waveform_powers`.  The oracles run
    without noise, and their residual gains the noise's conditional mean
    N sum_b s_b that the engine adds in place of a draw."""
    n = params.n_subcarriers
    hops, rho, stats = engine_inputs(branches, n)
    block = _run((hops, rho, stats), seed, trials, params)
    silent = dataclasses.replace(stats, noise_vars=np.zeros_like(stats.noise_vars))
    noise = n * sum(stats.noise_vars[0])
    errors = []
    for oracle in (oracle_powers, waveform_powers):
        signal, residual = oracle(params, hops, rho, silent, np.random.default_rng(seed), trials)
        for got, want in zip(block, (signal, residual + noise)):
            errors.append(float(np.max(np.abs(got - want) / want)))
    return max(errors)
# ------------------------------------------------------------------ gain factor

def test_gain_factor_unit_case():
    cfg = RelayGainConfig(mode="general", source_power=1.0, relay_power=1.0)
    assert gain_factor(cfg, 1.0, 0.0) == pytest.approx(1.0)


def test_uniform_allocation_hand_value():
    cfg = RelayGainConfig(mode="upa", total_power=2.0)
    assert gain_factor(cfg, 1.0, 1.0) == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_general_gain_hand_value():
    # rho = sqrt(P_R / (s_H2 P_S + s_Z2)) with P_S != P_R: swapping the two
    # powers gives sqrt(1.5 / 5.5) instead
    cfg = RelayGainConfig(mode="general", source_power=1.5, relay_power=2.5)
    assert gain_factor(cfg, 2.0, 0.5) == pytest.approx(np.sqrt(2.5 / 3.5), rel=1e-15)


def test_uniform_allocation_converges_to_asymptote():
    cfg = RelayGainConfig(mode="upa", total_power=1e6)
    rho = gain_factor(cfg, 2.0, 0.1)
    assert abs(rho - 1.0 / np.sqrt(2.0)) < 1e-6


def test_asymptotic_mode_and_zero_power_error():
    cfg = RelayGainConfig(mode="upa_asymptotic")
    assert gain_factor(cfg, 4.0, 0.3) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        gain_factor(cfg, 0.0, 0.3)


def test_fixed_mode_returns_rho():
    assert gain_factor(RelayGainConfig(mode="fixed", rho=1.7), 5.0, 5.0) == 1.7


def test_gain_config_validation():
    with pytest.raises(ValueError, match="unknown gain mode 'optimal'"):
        RelayGainConfig(mode="optimal")
    with pytest.raises(ValueError, match="unknown gain mode"):
        RelayGainConfig(mode=["upa"], total_power=2.0)  # compared, not hashed
    # each parameter a mode reads must be > 0, which NaN is not
    for kwargs, key in (({"mode": "fixed"}, "rho"),
                        ({"mode": "fixed", "rho": math.nan}, "rho"),
                        ({"mode": "upa", "total_power": 0.0}, "total_power"),
                        ({"mode": "general", "source_power": 1.0}, "relay_power"),
                        ({"mode": "general", "source_power": -1.0, "relay_power": 1.0},
                         "source_power")):
        with pytest.raises(ValueError, match=f"{kwargs['mode']} gain mode requires {key} > 0"):
            RelayGainConfig(**kwargs)
    # and every parameter it does not read must be left unset
    for kwargs, key in (({"mode": "fixed", "rho": 1.0, "total_power": -3.0}, "total_power"),
                        ({"mode": "general", "source_power": 1.0, "relay_power": 1.0,
                          "rho": 1.0}, "rho"),
                        ({"mode": "upa", "total_power": 2.0, "rho": 0.5}, "rho"),
                        ({"mode": "upa_asymptotic", "relay_power": 1.0}, "relay_power")):
        with pytest.raises(ValueError, match=f"{kwargs['mode']} gain mode does not read {key}$"):
            RelayGainConfig(**kwargs)


# --------------------------------------------------------------------- branch

@pytest.mark.parametrize("hops", [[], [FLAT, FLAT, FLAT]], ids=["0_hops", "3_hops"])
def test_branch_needs_one_or_two_hops(hops):
    with pytest.raises(ValueError, match="one or two hops"):
        sweep_plan(PARAMS, *engine_inputs([(hops, [0.0], [1.0], [0.0])]))


@pytest.mark.parametrize("hops, rho, n, message", [
    ([(FLAT,)] * 3, [[1.0, 1.0]], 64, r"got 3, \(1, 2\) and N = 64"),
    ([(FLAT,)], [[1.0, 1.0]], 64, r"got 1, \(1, 2\) and N = 64"),
    ([(FLAT,)] * 2, [[1.0, 1.0]] * 2, 64, r"got 2, \(2, 2\) and N = 64"),
    ([(FLAT,)] * 2, [1.0, 1.0], 64, r"got 2, \(2,\) and N = 64"),
    ([(FLAT,)] * 2, [[1.0, 1.0]], 60, r"got 2, \(1, 2\) and N = 60"),
], ids=["extra_hops", "missing_hops", "rho_points", "rho_1d", "stats_n"])
def test_engine_rejects_a_table_that_does_not_fit(hops, rho, n, message):
    # one hop list per branch, rho in the stats' (P, M + 1) layout, and the
    # stats' subcarrier count that of the numerology
    stats = LinkStats(n, [[1.0, 1.0]], [[0.0, 0.1]], [[0.1, 0.1]])
    need = r"need 2 hop lists, rho of shape \(1, 2\) and stats at N = 64; "
    with pytest.raises(ValueError, match=need + message):
        sweep_plan(PARAMS, hops, np.array(rho), stats)


# ----------------------------------------------------------------- direct link

def test_direct_link_trivial_passthrough():
    # flat fading, no offset, no noise: the received bins are h X[k]
    signal, residual = _simulate([([FLAT], [0.0], [1.0], [0.0])], 1, 5)
    sym, (h,) = _draws(1, [FLAT], 5)
    expected = np.abs(h[:, 0]) ** 2 * np.sum(np.abs(sym) ** 2, axis=-1)
    assert np.allclose(signal, expected, rtol=1e-12, atol=0)
    assert np.all(residual == 0)


def test_direct_link_matches_closed_form_spectrum():
    direct = ([uniform_profile(4, 1.0)], [-0.27], [1.0], [0.0])
    assert _oracle_error([direct], 3, 4) < 1e-9


def test_direct_link_with_unimodular_impairments_preserves_energy():
    _, tx = _tx(4)
    out = apply_cfo(apply_channel(tx, np.array([1.0]), PARAMS), 0.31, PARAMS)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(tx) ** 2), rel=1e-13)


def test_direct_link_isi_precondition():
    # 18 taps have memory 17, one beyond the prefix
    direct = ([uniform_profile(18)], [0.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="has 18 taps, memory 17 .*prefix length 16"):
        sweep_plan(PARAMS, *engine_inputs([direct]))


# ---------------------------------------------------------------- relay branch

def test_relay_branch_trivial_passthrough():
    # the relay alone, flat hops, no offset, no noise: its bins are
    # rho h1 h2 X[k]
    relay = ([FLAT, flat_profile(4.0)], [0.0], [0.8], [0.0])
    signal, residual = _simulate([([MUTED], [0.0], [1.0], [0.0]), relay], 6, 5)
    sym, (_, h1, h2) = _draws(6, [MUTED, FLAT, flat_profile(4.0)], 5)
    expected = 0.8 ** 2 * np.abs(h1[:, 0] * h2[:, 0]) ** 2 * np.sum(np.abs(sym) ** 2, axis=-1)
    assert np.allclose(signal, expected, rtol=1e-12, atol=0)
    assert np.all(residual == 0)


def test_relay_branch_matches_closed_form_spectrum():
    direct = ([FLAT], [0.0], [1.0], [0.0])
    relay = ([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.42], [1.3], [0.0])
    assert _oracle_error([direct, relay], 8, 4) < 1e-9


def test_relay_branch_linear_in_gain():
    # doubling rho doubles every sample, bin and genie gain exactly
    relay = ([uniform_profile(3), uniform_profile(2)], [0.2, 0.2], [1.0, 2.0], [0.0, 0.0])
    block = _simulate([([MUTED], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]), relay], 10, 5)
    assert np.array_equal(block[:, 1], 4.0 * block[:, 0])


@pytest.mark.parametrize("cfo, noise, message", [
    ([0.6], [0.01], r"cfos must lie in \[-0.5, 0.5\]"),
    ([np.nan], [0.01], r"cfos must lie in \[-0.5, 0.5\]"),
    ([0.1], [np.nan], "noise_vars must be >= 0"),
    (0.1, [0.01], r"must be \(P, M \+ 1\) arrays"),
    ([0.1, 0.2], [0.01], r"must be \(P, M \+ 1\) arrays"),
], ids=["offset_0.6", "nan_offset", "nan_noise", "scalar_offset", "unequal_lengths"])
def test_branch_rejects_what_the_closed_form_rejects(cfo, noise, message):
    # the engine reads its offsets and noise from the closed form's
    # LinkStats, whose checks they pass on the way from per-branch values;
    # NaN fails both checks, and a branch's values are one per point
    with pytest.raises(ValueError, match=message):
        engine_inputs([([FLAT], cfo, [1.0] * len(noise), noise)])


def test_negative_noise_variance_rejected():
    with pytest.raises(ValueError, match="noise_vars must be >= 0"):
        engine_inputs([([FLAT], [0.0, 0.0], [1.0, 1.0], [0.01, -0.01])])


def test_relay_branch_isi_precondition():
    # hops of 9 + 10 or 1 + 18 taps cascade to 18 taps, memory 17, one
    # beyond the prefix
    for taps in ([9, 10], [1, 18]):
        relay = ([uniform_profile(n) for n in taps], [0.0], [1.0], [0.0])
        with pytest.raises(ValueError, match="has 18 taps, memory 17 .*prefix length 16"):
            sweep_plan(PARAMS, *engine_inputs([([FLAT], [0.0], [1.0], [0.0]), relay]))


@pytest.mark.parametrize("name, changes, params", [
    ("direct", {0: ([FLAT], [0.2], [1e160], [0.01])}, PARAMS),
    ("relays[1]", {2: ([FLAT, FLAT], [0.2], [1e160], [0.01])}, PARAMS),
    # multi-tap hops at a nonzero offset: rho^2 is finite and ||HX||^2
    # overflows inside its contraction, which returns inf without raising
    ("relays[0]",
     {1: ([uniform_profile(4, 1e305), uniform_profile(3, 100.0)], [0.2], [1.0], [0.01])}, PARAMS),
    # ||X||^2 = 64 x 3e306 overflows in the symbols' sums that the flat
    # branches share: the faint multi-tap direct link's own stay finite, and
    # relays[0], the first flat branch, forms them for relays[1] too, though
    # its own offset is 0
    ("relays[0]", {0: ([uniform_profile(4, 1e-10)], [0.1], [1.0], [0.01]),
                   1: ([FLAT, flat_profile(1e-10)], [0.0], [1.0], [0.01]),
                   2: ([FLAT, FLAT], [0.3], [1.0], [0.01])},
     dataclasses.replace(PARAMS, symbol_power=3e306)),
    # flat hops at offset 0: |h|^2 overflows, and times the zero leakage
    # it forms inf * 0, which must raise rather than warn
    ("relays[0]", {1: ([flat_profile(1e200), flat_profile(1e200)], [0.0], [1.0], [0.01])},
     PARAMS),
    # the residual alone: N s_b = 64 x 1e307 while the signal stays finite
    ("direct", {0: ([FLAT], [0.1], [1.0], [1e307])}, PARAMS),
], ids=["0-direct", "2-relays[1]", "1-relays[0]-multi_tap", "1-relays[0]-shared_sums",
        "1-relays[0]-flat_offset_0", "0-direct-noise"])
def test_overflow_names_its_branch(name, changes, params):
    # a power beyond the float range raises, naming the branch as the
    # config names its link
    branches = [([FLAT], [0.1], [1.0], [0.01])] + [([FLAT, FLAT], [0.2], [1.0], [0.01])] * 2
    for b, branch in changes.items():
        branches[b] = branch
    with pytest.raises(FloatingPointError, match=re.escape(name) + ": overflow"):
        _simulate(branches, 0, 3, params)


# ------------------------------------------------------ memory at the prefix

@pytest.mark.parametrize("branches", [
    [([uniform_profile(17)], [0.23], [1.0], [0.01])],
    [([FLAT], [0.0], [1.0], [0.01]),
     ([uniform_profile(9), uniform_profile(9)], [0.23], [0.9], [0.02 + 0.9 ** 2 * 0.01])],
    [([FLAT], [0.0], [1.0], [0.01]),
     ([FLAT, uniform_profile(17)], [0.23], [0.9], [0.02 + 0.9 ** 2 * 0.01])],
    [([FLAT], [0.0], [1.0], [0.01]),
     ([uniform_profile(15), uniform_profile(2)], [0.23], [0.9], [0.02 + 0.9 ** 2 * 0.01])],
], ids=["direct_17", "relay_9_9", "relay_1_17", "relay_15_2"])
def test_memory_equal_to_prefix_matches_oracle(branches):
    # memory 16 = PARAMS.cp_len, the most the prefix covers; one tap more is
    # rejected by the isi_precondition tests above.  The relay's hops are
    # convolved through 16-point transforms before the N-point one at 15 x 2
    # (4 m = 64 <= N = 64, memory 15), and transformed one by one at 9 x 9
    # (m = 32) and at 1 x 17, whose flat hop is never convolved
    assert _oracle_error(branches, 31, 3) < 1e-9


# ------------------------------------------------------------------- combining

def test_two_ideal_branches_combine_coherently():
    # co-phased, each branch adds its coherent power and no residual
    relay = ([FLAT, FLAT], [0.0], [1.0], [0.0])
    signal, residual = _simulate([([FLAT], [0.0], [1.0], [0.0]), relay], 13, 5)
    sym, (h0, h1, h2) = _draws(13, [FLAT, FLAT, FLAT], 5)
    gains = np.abs(h0[:, 0]) ** 2 + np.abs(h1[:, 0] * h2[:, 0]) ** 2
    assert np.allclose(signal, gains * np.sum(np.abs(sym) ** 2, axis=-1), rtol=1e-12, atol=0)
    assert np.all(residual == 0)


def test_combined_metric_matches_closed_form_assembly():
    # full noisy chain vs the spectra assembled from the closed form
    direct = ([uniform_profile(4, 1.0)], [0.17], [1.0], [0.05])
    relay = ([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [-0.33], [0.9],
             [0.02 + 0.9 ** 2 * 0.05])
    assert _oracle_error([direct, relay], 15, 4) < 1e-9


@pytest.mark.parametrize("n", [64, 89, 127])  # 89 and 127 are prime: Bluestein transforms
def test_flat_hops_match_both_oracles(n):
    # one-tap hops skip the transform; the oracles still take one
    direct = ([FLAT], [0.17], [1.0], [0.05])
    relay = ([FLAT, flat_profile(4.0)], [-0.33], [0.9], [0.02 + 0.9 ** 2 * 0.05])
    params = OfdmParams(n_subcarriers=n, cp_len=16)
    assert _oracle_error([direct, relay], 16, 4, params) < 1e-9


@pytest.mark.parametrize("l1, l2", [(1, 33), (33, 1)])
def test_flat_hop_beside_a_long_hop_matches_both_oracles(l1, l2):
    # 2 x 1 x (1 + 33 - 1) = 66 > N = 64: the hops are not convolved, and
    # the flat hop's tap column multiplies the long hop's transform
    direct = ([FLAT], [0.17], [1.0], [0.05])
    hops = [uniform_profile(l1, 1.0), uniform_profile(l2, 4.0)]
    relay = (hops, [-0.33], [0.9], [0.02 + 0.9 ** 2 * 0.05])
    params = OfdmParams(n_subcarriers=64, cp_len=40)
    assert _oracle_error([direct, relay], 17, 4, params) < 1e-9


@pytest.mark.parametrize("n", [64, 127])
def test_flat_relays_sharing_offsets_match_both_oracles(n):
    # flat branches share the symbols' transform and each offset's sum:
    # the direct link and a relay at 0.5, two relays at -0.5 (one muted),
    # one at zero offset and one at its own offset
    def relay(first, second, cfo, rho):
        return ([flat_profile(first), flat_profile(second)], [cfo], [rho],
                [0.02 + rho ** 2 * 0.05])

    branches = [([FLAT], [0.5], [1.0], [0.05]), relay(1.0, 4.0, 0.5, 0.9),
                relay(2.0, 1.0, -0.5, 1.2), relay(1.0, 0.0, -0.5, 0.7),
                relay(0.5, 2.0, 0.0, 1.1), relay(3.0, 1.0, 0.17, 0.8)]
    params = OfdmParams(n_subcarriers=n, cp_len=16)
    assert _oracle_error(branches, 23, 4, params) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([48, 64, 80, 96]),
       st.sampled_from(["qpsk", "qam16"]), st.integers(1, 16), st.sampled_from([None, 0.5]),
       st.booleans())
@example(0, 96, "qam16", 16, None, False)
@example(1, 48, "qpsk", 16, None, True)
@example(2, 64, "qpsk", 3, 0.5, False)
@example(3, 80, "qam16", 1, 0.5, True)
def test_block_matches_per_trial_oracle(seed, n, constellation, m, edge, at_bound):
    # every trial of a block, for any subcarrier count, constellation and
    # 1 to 16 relays with 1 to 4 taps per hop; given an edge, the offsets
    # alternate between exactly +edge and -edge; at_bound puts one branch's
    # channel memory, the sum of L - 1 over its hops, exactly at cp_len
    rng = np.random.default_rng(seed)
    params = OfdmParams(n_subcarriers=n, cp_len=8, constellation=constellation,
                        symbol_power=rng.uniform(0.5, 2.0))

    def profile():
        return uniform_profile(int(rng.integers(1, 5)), rng.uniform(0.25, 4.0))

    def offset(branch):
        return rng.uniform(-0.5, 0.5) if edge is None else edge * (-1.0) ** branch

    def relay(i):  # the relay's noise, then the destination's, as rho^2 s_Z2 + s_Z3
        hops, cfo, rho = [profile(), profile()], offset(i + 1), rng.uniform(0.3, 2.0)
        return hops, [cfo], [rho], [rng.uniform(0.0, 0.1) * rho ** 2 + rng.uniform(0.0, 0.1)]

    branches = [([profile()], [offset(0)], [1.0], [rng.uniform(0.0, 0.1)])] + [
        relay(i) for i in range(m)]
    if at_bound:
        b = int(rng.integers(0, m + 1))
        first = int(rng.integers(1, params.cp_len + 2))
        taps = [params.cp_len + 1] if b == 0 else [first, params.cp_len + 2 - first]
        branches[b] = ([uniform_profile(k, rng.uniform(0.25, 4.0)) for k in taps],
                       *branches[b][1:])
    assert _oracle_error(branches, [seed, 1], 2, params) < 1e-9


def test_combining_is_linear_in_branches():
    # a relay at rho = 0 adds nothing, so with the direct link muted the
    # two-relay point is exactly the sum of the one-relay points; flat
    # relays at one offset share its sum over the symbols
    cases = [([uniform_profile(3), uniform_profile(2)], [uniform_profile(2), FLAT], -0.2, 0.3),
             ([FLAT, flat_profile(4.0)], [flat_profile(2.0), FLAT], 0.3, 0.3)]
    for first, second, cfo1, cfo2 in cases:
        branches = [
            ([MUTED], [0.1] * 3, [1.0] * 3, [0.0] * 3),
            (first, [cfo1] * 3, [1.1, 0.0, 1.1], [0.0] * 3),
            (second, [cfo2] * 3, [0.0, 0.9, 0.9], [0.0] * 3),
        ]
        block = _simulate(branches, 18, 5)
        assert np.array_equal(block[:, 2], block[:, 0] + block[:, 1])


@pytest.mark.filterwarnings("error")
def test_zero_genie_gain_adds_only_its_noise():
    # the engine forms powers, so a genie gain of 0 at every bin needs no
    # derotation phase: the branch adds exactly 0 to the signal and N s_b
    # to the residual, and warns of nothing.  A muted direct link alone:
    n = PARAMS.n_subcarriers
    signal, residual = _simulate([([MUTED], [0.1, 0.0], [1.0, 1.0], [0.01, 0.03])], 19, 3)
    assert np.array_equal(signal, np.zeros((2, 3)))
    assert np.array_equal(residual, np.broadcast_to(n * np.array([[0.01], [0.03]]), (2, 3)))
    # a relay at rho = 0 or with a muted hop, flat or multi-tap, added last
    # at an offset already in the plan: its taps are the block's last draws,
    # so the other branches' powers are those of the block without it
    others = [([uniform_profile(3)], [0.1], [1.0], [0.01]), ([FLAT, FLAT], [0.2], [0.9], [0.02])]
    base = _simulate(others, 19, 3)
    assert np.isfinite(base).all() and np.all(base > 0)
    silent = PowerDelayProfile(np.zeros(2))
    for hops, rho in (([FLAT, FLAT], 0.0), ([uniform_profile(3), uniform_profile(2)], 0.0),
                      ([FLAT, MUTED], 0.9), ([uniform_profile(3), silent], 0.9)):
        signal, residual = _simulate(others + [(hops, [0.2], [rho], [0.03])], 19, 3)
        assert np.array_equal(signal, base[0])
        assert np.array_equal(residual, base[1] + n * 0.03)


# --------------------------------------------------------------- decomposition

def test_no_offset_no_noise_leaves_zero_residual():
    branches = [([uniform_profile(4, 1.0)], [0.0], [1.0], [0.0]),
                ([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.0], [1.0], [0.0])]
    _, residual = _simulate(branches, 22, 1)
    assert residual[0, 0] == 0


def test_scaling_symbols_by_two_quadruples_both_powers():
    # symbol_power 4 doubles every symbol, sample and bin exactly
    direct = ([uniform_profile(4, 1.0)], [0.1], [1.0], [0.0])
    base = _simulate([direct], 24, 5)
    scaled = _simulate([direct], 24, 5, OfdmParams(n_subcarriers=64, cp_len=16, symbol_power=4.0))
    assert np.array_equal(scaled, 4.0 * base)


def test_noise_only_signal_converges_to_coherent_power():
    # with zero offsets the per-bin signal power must average to
    # direct_power + rho^2 * hop1_power * hop2_power (symbol power 1)
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    branches = [([flat_profile(1.0)], [0.0], [1.0], [0.1]),
                ([flat_profile(1.0), flat_profile(4.0)], [0.0], [1.0], [0.2])]
    total = 0.0
    trials = 4000
    for b in range(10):
        total += np.sum(_simulate(branches, [99, b], trials // 10, params)[0])
    per_bin = total / (trials * 64)
    assert per_bin == pytest.approx(1.0 + 4.0, rel=0.05)


def _zero_offset_inputs(n=64, direct_noise_var=0.1):
    """fig3_flat at N = n with two relays of unequal noise and gain rules,
    at zero offsets: its config and point table at two noise scales."""
    raw = copy.deepcopy(PRESETS["fig3_flat"])
    raw["ofdm"]["n_subcarriers"] = n
    raw["direct"]["noise_var"] = direct_noise_var
    raw["relays"][0].update(relay_noise_var=0.3, dest_noise_var=0.05,
                            gain={"mode": "fixed", "rho": 1.7})
    raw["relays"].append(dict(raw["relays"][0], relay_noise_var=0.02, dest_noise_var=0.2,
                              gain={"mode": "general", "source_power": 1.0, "relay_power": 3.0}))
    raw["sweep"]["grid"] = [0.0]
    cfg = config_from_dict(raw)
    stats, rho = point_inputs(cfg)
    assert not np.any(stats.cfos) and np.all(rho[:, 1:] != 1.0)
    return cfg, [link.hops for link in cfg.links], rho, stats


def test_noise_only_residual_converges_to_the_closed_form_noise():
    # point_inputs alone decides that a relay's noise arrives amplified by
    # its gain; with zero offsets the waveform oracle's residual per bin,
    # from noise drawn at s_b / N per sample, must average to sum_b s_b of
    # the same points' LinkStats, the noise the closed form sees
    cfg, hops, rho, stats = _zero_offset_inputs()
    trials = 4000
    for p, expected in enumerate(np.sum(stats.noise_vars, axis=-1)):
        total = 0.0
        for b in range(10):
            rng = np.random.default_rng([99, b])
            total += np.sum(waveform_powers(cfg.ofdm, *_one_point((hops, rho, stats), p), rng,
                                            trials // 10)[1])
        assert total / (trials * cfg.ofdm.n_subcarriers) == pytest.approx(expected, rel=0.01)


def test_zero_offset_residual_is_the_noise_mean():
    # the engine draws no noise: at zero offsets each trial's residual is
    # exactly N sum_b s_b, added in branch order, with s_b the closed
    # form's own; at N = 60 these s_b do not survive the round trip
    # N (s_b / N), so an engine that took one would fail here
    cfg, hops, rho, stats = _zero_offset_inputs(60, 0.476)
    n, s = cfg.ofdm.n_subcarriers, stats.noise_vars
    _, residual = _run((hops, rho, stats), 3, 5, cfg.ofdm)
    expected = round_trip = 0.0
    for b in range(s.shape[1]):
        expected = expected + n * s[:, b]
        round_trip = round_trip + n * (n * (s[:, b] / n))
    assert np.any(round_trip != expected)
    assert np.array_equal(residual, np.repeat(expected[:, None], 5, axis=1))


# ----------------------------------------------------------------- whole trial

def test_trial_is_deterministic_given_the_stream():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    branches = [([uniform_profile(4, 1.0)], [0.1], [1.0], [0.001]),
                ([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.2], [0.8],
                 [(1 + 0.8 ** 2) * 0.001])]
    a = _simulate(branches, [7, 1], 1, params)
    b = _simulate(branches, [7, 1], 1, params)
    assert np.array_equal(a, b)


def test_trial_supports_multiple_relay_branches():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    branches = [
        ([flat_profile(1.0)], [0.05], [1.0], [0.001]),
        ([flat_profile(1.0), flat_profile(2.0)], [0.1], [1.0], [0.002]),
        ([uniform_profile(2, 1.0), uniform_profile(2, 1.0)], [-0.2], [0.7],
         [(1 + 0.7 ** 2) * 0.001]),
    ]
    assert np.all(_simulate(branches, 5, 1, params) > 0)


# ----------------------------------------------------------------- block engine

GOLDEN_BRANCHES = {
    "selective_one_relay": [
        ([uniform_profile(4, 1.0)], [0.1], [1.0], [0.1]),
        ([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.2], [0.8],
         [(1 + 0.8 ** 2) * 0.1]),
    ],
    "two_relays": [
        ([flat_profile(1.0)], [0.05], [1.0], [0.064]),
        ([flat_profile(1.0), flat_profile(2.0)], [0.1], [1.0], [0.128]),
        ([uniform_profile(2, 1.0), uniform_profile(2, 1.0)], [-0.2], [0.7],
         [(1 + 0.7 ** 2) * 0.064]),
    ],
}

# (signal, residual) powers of one trial on default_rng([20260808, seed]).
# The signals were recorded from the per-trial engine that simulate_block
# replaced (one np.convolve and one transform call per trial and stage);
# symbols and taps are drawn first, so no change to the noise moves them.
# The residuals were recorded from `waveform.waveform_powers` run without
# noise, plus the noise's conditional mean N sum_b s_b.
GOLDEN_POWERS = {
    ("selective_one_relay", 0): (266.44075474629824, 47.863871049220904),
    ("selective_one_relay", 1): (61.392447978054804, 22.506947647178574),
    ("selective_one_relay", 2): (143.529427285345, 30.906972838971434),
    ("two_relays", 0): (107.39739482555294, 26.161996476953156),
    ("two_relays", 1): (8.103038144888485, 19.189574153764482),
    ("two_relays", 2): (145.07796492214442, 23.248632738617445),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_POWERS))
def test_one_trial_block_reproduces_per_trial_engine(name, seed):
    block = _simulate(GOLDEN_BRANCHES[name], [20260808, seed], 1)
    assert block.shape == (2, 1, 1) and block.dtype == np.float64
    assert block[:, 0, 0].tolist() == pytest.approx(GOLDEN_POWERS[(name, seed)], rel=1e-12)


# ----------------------------------------------------------- points of a block

def _point_table(branches, cfos, scales, gains=1.0, n=64):
    """The engine's P-point table at N = n from one-point branches: offsets
    (P, M + 1), and each point's noise scaled by its entry of `scales`,
    its relay gains by its entry of `gains` (the direct link keeps gain 1)."""
    cfos, scales = np.asarray(cfos), np.asarray(scales)
    gains = np.broadcast_to(gains, scales.shape)
    return engine_inputs([(hops, cfos[:, b], rho[0] * (gains if b else np.ones(scales.shape)),
                           noise[0] * scales)
                          for b, (hops, _, rho, noise) in enumerate(branches)], n)


def _one_point(table, p):
    """Point p of the engine's (hops, rho, stats) table, as a one-point table."""
    hops, rho, stats = table
    fields = (stats.branch_powers, stats.cfos, stats.noise_vars)
    return hops, rho[p:p + 1], LinkStats(stats.n_subcarriers, *(f[p:p + 1] for f in fields))


POINT_BRANCHES = {
    "flat": [
        ([flat_profile(1.0)], [0.0], [1.0], [0.1]),
        ([flat_profile(1.0), flat_profile(4.0)], [0.0], [0.8], [(1 + 0.8 ** 2) * 0.1]),
    ],
    # three flat relays: with the direct link, four branches that share the
    # block's ifft(X) and its per-offset sums
    "flat_three_relays": [
        ([flat_profile(1.0)], [0.0], [1.0], [0.1]),
        ([flat_profile(1.0), flat_profile(4.0)], [0.0], [0.8], [(1 + 0.8 ** 2) * 0.1]),
        ([flat_profile(2.0), flat_profile(1.0)], [0.0], [1.3], [0.2 + 1.3 ** 2 * 0.05]),
        ([flat_profile(0.5), flat_profile(3.0)], [0.0], [0.6], [0.1 + 0.6 ** 2 * 0.1]),
    ],
    # a multi-tap relay between flat branches, which share the symbols' sums
    "mixed": [
        ([flat_profile(1.0)], [0.0], [1.0], [0.1]),
        ([uniform_profile(2, 1.0), uniform_profile(3, 2.0)], [0.0], [1.3],
         [0.2 + 1.3 ** 2 * 0.05]),
        ([flat_profile(2.0), flat_profile(1.0)], [0.0], [0.8], [(1 + 0.8 ** 2) * 0.1]),
    ],
    "selective_two_relays": [
        ([uniform_profile(4, 1.0)], [0.0], [1.0], [0.1]),
        ([uniform_profile(4, 1.0), uniform_profile(4, 4.0)], [0.0], [0.8],
         [(1 + 0.8 ** 2) * 0.1]),
        ([uniform_profile(2, 1.0), uniform_profile(3, 2.0)], [0.0], [1.3],
         [0.2 + 1.3 ** 2 * 0.05]),
    ],
    # at N = 64 the relay's hops are convolved through m-point transforms,
    # m the power of two >= L1 + L2 - 1, while 4 m <= N: at 5 x 4 taps
    # (m = 8), 4 x 6 (16) and 8 x 9 (16, the longest cascade that is), and
    # transformed one by one at 9 x 9 (32)
    "relay_5_4": [
        ([flat_profile(1.0)], [0.0], [1.0], [0.1]),
        ([uniform_profile(5, 1.0), uniform_profile(4, 4.0)], [0.0], [0.8], [0.2]),
    ],
    "relay_4_6": [
        ([flat_profile(1.0)], [0.0], [1.0], [0.1]),
        ([uniform_profile(4, 1.0), uniform_profile(6, 4.0)], [0.0], [0.8], [0.2]),
    ],
    "relay_8_9": [
        ([flat_profile(1.0)], [0.0], [1.0], [0.1]),
        ([uniform_profile(8, 1.0), uniform_profile(9, 4.0)], [0.0], [0.8], [0.2]),
    ],
    "relay_9_9": [
        ([flat_profile(1.0)], [0.0], [1.0], [0.1]),
        ([uniform_profile(9, 1.0), uniform_profile(9, 4.0)], [0.0], [0.8], [0.2]),
    ],
}


POINT_CASES = [pytest.param(name, trials, 4, id=f"{name}-{trials}")
               for name in sorted(POINT_BRANCHES) for trials in (1, 7, 357)]
# 40 points of 7 trials: many distinct offsets per branch, each reduced once
POINT_CASES.append(pytest.param("selective_two_relays", 7, 40, id="selective_two_relays-7-40"))


@pytest.mark.parametrize("name, trials, count", POINT_CASES)
def test_block_of_points_equals_one_point_blocks(name, trials, count):
    branches = POINT_BRANCHES[name]
    relays = len(branches) - 1
    cfos = [[0.0] + [0.0] * relays, [0.1, -0.2, 0.3, -0.4][:relays + 1],
            [-0.45] + [0.45] * relays, [0.2] + [0.2] * relays]
    scales = [1.0, 1.0, 0.1, 0.0]  # the fourth point is noise-free
    gains = [1.0, 1.2, 0.7, 1.0]
    rng = np.random.default_rng(count)
    cfos += rng.uniform(-0.5, 0.5, (count - 4, relays + 1)).tolist()
    scales += rng.choice([1.0, 0.1, 0.0], count - 4).tolist()
    gains += rng.uniform(0.5, 1.5, count - 4).tolist()
    points = _point_table(branches, cfos, scales, gains)
    block = _run(points, [5, 3], trials)
    assert block.shape == (2, count, trials)
    for p in range(count):
        assert np.array_equal(block[:, p], _run(_one_point(points, p), [5, 3], trials)[:, 0])


def test_block_of_points_consumes_the_stream_of_one_point():
    # every point shares the block's draws: the stream ends where one
    # point's block leaves it
    points = _point_table(POINT_BRANCHES["selective_two_relays"], np.zeros((3, 3)),
                          [1.0, 0.5, 0.1])
    shared, alone = np.random.default_rng(9), np.random.default_rng(9)
    _run(points, shared, 11)
    _run(_one_point(points, 2), alone, 11)
    assert shared.bit_generator.state == alone.bit_generator.state


def test_block_draws_the_symbols_and_taps_only():
    # the engine integrates the noise out: at any noise variance the stream
    # ends after the symbols and each branch's taps, hop by hop
    points = _point_table(POINT_BRANCHES["selective_two_relays"],
                          [[0.0, 0.3, -0.2], [0.1, 0.0, 0.5]], [1.0, 0.0])
    engine, replay = np.random.default_rng(9), np.random.default_rng(9)
    _run(points, engine, 11)
    draw_symbols(PARAMS, replay, 11)
    for link in points[0]:
        for profile in link:
            draw_channel(profile, replay, 11)
    assert engine.bit_generator.state == replay.bit_generator.state


# four relays of 16-tap exponential hops at N = 1024, like the benchmark's
# wide4_n1024 sweep: every branch takes the transform path
WIDE4 = ([([exponential_profile(16, 1.0, 4.0)], [0.0], [1.0], [0.1])]
         + [([exponential_profile(16, 1.0, 4.0), exponential_profile(16, 4.0, 4.0)], [0.0],
             [0.9], [0.1 + 0.9 ** 2 * 0.1])] * 4)


@pytest.mark.parametrize("branches, n", [pytest.param(POINT_BRANCHES["mixed"], 64, id="mixed"),
                                         pytest.param(WIDE4, 1024, id="wide4")])
def test_one_buffer_set_per_block_range_equals_fresh_blocks(branches, n):
    # a block range draws and transforms every block in one (2, B, N)
    # buffer set, sliced for the short last block; a block reads nothing
    # that the set held before it, here NaN and then the previous block
    params = OfdmParams(n_subcarriers=n, cp_len=n // 16)
    m = len(branches)
    cfos = [[0.0] * m, np.linspace(-0.5, 0.5, m), [0.3] * m]
    plan = sweep_plan(params, *_point_table(branches, cfos, [1.0, 0.1, 0.0], n=n))
    size = block_size(params)
    trials = 2 * size + 5
    buffers = np.full((2, size, n), complex(np.nan, np.nan))
    for b in range(3):
        rows = min(size, trials - b * size)
        reused = simulate_block(plan, np.random.default_rng([7, b]), rows, buffers)
        fresh = simulate_block(plan, np.random.default_rng([7, b]), rows)
        assert reused.shape == (2, 3, rows)
        assert np.array_equal(reused, fresh)
        assert np.isfinite(reused[1]).all()


def test_transforms_per_block_do_not_depend_on_the_point_count(monkeypatch):
    # every transform runs once per block and branch, none per point, each
    # counted by the length of its transformed axis; a branch at zero offset
    # on every point runs no inverse transform, a one-tap hop no forward
    # one, and a relay of multi-tap hops within 4 m <= N one forward N-point
    # transform of their convolution, which takes two forward m-point
    # transforms and one inverse; flat branches share one inverse transform
    # of the symbols, whatever their offsets
    calls = record_transforms(monkeypatch)
    short = lambda m: [("fft", m), ("fft", m), ("ifft", m)]
    cases = [("selective_two_relays", 3, [1.0, -1.0, 0.5], 3, short(8) + short(4)),  # 4, 4x4, 2x3
             ("selective_two_relays", 3, [0.0, -1.0, 0.5], 2, short(8) + short(4)),
             ("flat", 0, [0.0, 1.0], 1, []), ("flat", 0, [0.0, 0.0], 0, []),
             ("flat", 0, [1.0, 1.0], 1, []), ("flat_three_relays", 0, [1.0, -0.6, 0.3, 0.8], 1, []),
             ("relay_5_4", 1, [0.0, 1.0], 1, short(8)), ("relay_4_6", 1, [0.0, 1.0], 1, short(16)),
             ("relay_8_9", 1, [0.0, 1.0], 1, short(16)), ("relay_9_9", 2, [0.0, 1.0], 1, []),
             ("mixed", 1, [1.0, -1.0, 0.5], 2, short(4))]  # one ifft(HX), one ifft(X)
    for name, responses, moving, inverses, convolutions in cases:
        counts = []
        for count in (1, 40):
            cfos = np.linspace(-0.5, 0.5, count)[:, None] * moving
            calls.clear()
            _run(_point_table(POINT_BRANCHES[name], cfos, np.ones(count)), 4, 7)
            counts.append((sorted(c for c in calls if c[1] == 64),
                           sorted(c for c in calls if c[1] != 64)))
        assert counts[0] == counts[1] == (
            sorted([("fft", 64)] * responses + [("ifft", 64)] * inverses),
            sorted(convolutions)), name


def test_noise_free_zero_offset_point_has_zero_residual_beside_noisy_points():
    # the infinity sentinel reports such a point, whose residual is exactly 0
    cfos = [[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [0.0, 0.0, 0.0], [0.5, -0.5, 0.5]]
    points = _point_table(POINT_BRANCHES["selective_two_relays"], cfos, [0.0, 1.0, 1.0, 0.1])
    signal, residual = _run(points, 12, 102)
    assert np.all(residual[0] == 0)
    assert np.all(residual[1:] > 1e-6 * signal[1:])


# ------------------------------------------------------ per-branch moments

# Each branch alone has exact per-term expectations at offset eps:
#   E[signal]/N = f^2(eps) a_b  and  E[residual/N - s_b] = (1 - f^2(eps)) a_b,
# a_b = rho^2 prod P_hop s_X, the leakage term being the CFO's cost.  Over
# the 3 x 2 cases below, 5 signal and 4 leakage means (the leakage at eps = 0
# is exactly 0) give 54 z-scores; each is bounded two-sided at a 1e-4 / 54
# false-failure chance (Bonferroni, as c3's calibration), so a correct
# engine fails the test with probability at most 1e-4.
MOMENT_OFFSETS = [0.0, 0.1, 0.3, -0.49, 0.5]
MOMENT_Z_BOUND = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * 54))
MOMENT_HOPS = {
    "one_hop": (1.0, [exponential_profile(3, 1.3)]),
    "two_hops": (0.8, [uniform_profile(4, 1.0), uniform_profile(3, 4.0)]),
}


@pytest.mark.parametrize("hops", sorted(MOMENT_HOPS))
@pytest.mark.parametrize("n", [64, 60, 127])
def test_each_branch_term_has_its_exact_expectation(n, hops):
    params = OfdmParams(n_subcarriers=n, cp_len=8, constellation="qam16", symbol_power=1.5)
    rho, profiles = MOMENT_HOPS[hops]
    points = len(MOMENT_OFFSETS)
    branch = (profiles, MOMENT_OFFSETS, [rho] * points, [0.03] * points)
    signal, residual = np.concatenate([_simulate([branch], [61, b], 204, params)
                                       for b in range(10)], axis=-1)
    noise = n * 0.03  # the residual's noise part, N s_b
    signal, leakage = signal / n, (residual - noise) / n
    a = rho ** 2 * math.prod(p.total_power for p in profiles) * params.symbol_power
    assert np.all(leakage[0] == 0)
    for eps, sig, leak in zip(MOMENT_OFFSETS, signal, leakage):
        f2 = paper_gain(eps, n) ** 2
        terms = [(sig, f2 * a)] + ([(leak, (1.0 - f2) * a)] if eps else [])
        for values, expected in terms:
            z = (values.mean() - expected) / (values.std(ddof=1) / math.sqrt(values.size))
            assert abs(z) <= MOMENT_Z_BOUND, f"eps {eps}: mean {values.mean()} vs {expected}"
