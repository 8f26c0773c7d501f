"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity next to its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import copy
import functools
import math
import time
from dataclasses import replace

import numpy as np

from afrelay.analysis import LinkStats
from afrelay.channel import branch_response
from afrelay.harness import (
    PRESETS,
    config_from_dict,
    run_sweep,
    write_csv,
)
from afrelay.ofdm import OfdmParams, draw_symbols
from afrelay.relay import RelayGainConfig, gain_factor
from afrelay.transforms import dirichlet_gain
from conftest import cgauss, ici_reference, paper_snr, paper_snr_upa
from waveform import (
    apply_cfo,
    apply_channel,
    cfo_spectrum,
    linear_convolve,
    modulate,
    standard_noise,
)

from test_analysis import BASE, closed_form, lambdas, random_stats, single_relay, upa_limit


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\nFAIL {label}: {exc}", flush=True)
                raise
            print(f"\nPASS {label}: {detail}", flush=True)
        return wrapper
    return decorate


@criterion("criterion 1 (waveform pipeline matches closed-form spectra)")
def test_c1_pipeline_oracle():
    params = OfdmParams(n_subcarriers=64, cp_len=16)
    rng = np.random.default_rng(101)
    rho = 1.0
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        sym = draw_symbols(params, rng, 1)
        tx = modulate(sym, params)
        h_direct = cgauss(rng, 4, var=1.0 / 4)
        h_hop1 = cgauss(rng, 4, var=1.0 / 4)
        h_hop2 = cgauss(rng, 4, var=4.0 / 4)
        eps1, eps2 = rng.uniform(-0.5, 0.5, 2)

        # each noise source draws its normals, as the waveform oracle does; at
        # variance 0 they add nothing, so the draws are discarded
        y_direct = apply_cfo(apply_channel(tx, h_direct, params), eps1, params)
        standard_noise(y_direct.shape, rng)
        cascade = linear_convolve(h_hop1, h_hop2, 7)
        y_relay = rho * apply_cfo(apply_channel(tx, cascade, params), eps2, params)
        for _ in range(2):  # relay noise, then destination noise
            standard_noise(y_relay.shape, rng)

        ref_direct = ici_reference(sym[0], branch_response([h_direct], 64), eps1)
        ref_relay = ici_reference(
            sym[0], branch_response([h_hop1], 64) * branch_response([h_hop2], 64),
            eps2, scale=rho,
        )
        for signal, reference in ((y_direct, ref_direct), (y_relay, ref_relay)):
            spectrum = np.fft.fft(signal[0, 16:])
            rel = np.abs(spectrum - reference) / np.abs(reference)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst per-bin relative error {worst:.3e} >= 1e-9"
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s >= 10 s"
    return f"worst per-bin relative error {worst:.2e} (< 1e-9), {elapsed:.1f} s"


@criterion("criterion 2 (leakage energy identity)")
def test_c2_energy_identity():
    worst = 0.0
    for n in (16, 64, 256):
        for eps in np.linspace(-0.49, 0.49, 50):
            total = sum(abs(cfo_spectrum(eps, k, n)) ** 2 for k in range(n))
            worst = max(worst, abs(total - 1.0))
    assert worst < 1e-12, f"worst |sum - 1| = {worst:.3e} >= 1e-12"
    return f"worst |sum - 1| = {worst:.2e} over N in (16, 64, 256) (< 1e-12)"


@criterion("criterion 3 (Monte-Carlo matches the closed-form SNR)")
def test_c3_monte_carlo_vs_closed_form():
    grid = [0.0, 0.1, 0.2, 0.3, 0.4]
    start = time.perf_counter()
    worst_gap = 0.0
    worst_case = ""
    # each preset on each axis, and one run at a symbol power other than 1
    cases = [(preset, axis, {}) for preset in ("fig3_flat", "fig4_selective")
             for axis in ("eps1", "eps2")]
    cases.append(("fig4_selective", "eps2", {"constellation": "qam16", "symbol_power": 0.37}))
    for preset, axis, ofdm in cases:
        raw = copy.deepcopy(PRESETS[preset])
        raw["ofdm"].update(ofdm)
        raw["sweep"] = {"axis": axis, "grid": grid}
        raw["noise_scales"] = [1.0, 0.1]
        raw["trials"] = 2000
        rows = run_sweep(config_from_dict(raw))
        name = "/".join([preset, axis, *map(str, ofdm.values())])
        for row in rows:
            gap = abs(row.empirical_db - row.analytical_db)
            bound = max(0.3, 3.0 * row.stderr_db)
            if gap > worst_gap:
                worst_gap = gap
                worst_case = f"{name} eps=({row.eps1},{row.eps2})"
            assert gap < bound, (
                f"{name} at ({row.eps1}, {row.eps2}): "
                f"gap {gap:.3f} dB >= bound {bound:.3f} dB"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0, f"runtime {elapsed:.0f} s >= 180 s"
    return (
        f"{len(cases) * 10} points x 2000 trials, worst gap {worst_gap:.3f} dB at {worst_case} "
        f"(bound max(0.3, 3*stderr)), {elapsed:.0f} s"
    )


# Replicate-seed calibration: R independent master seeds at one preset
# point.  If the estimator is unbiased and its stderr calibrated, the
# z-scores z_r = (empirical - analytical) / stderr are i.i.d. N(0, 1), so
# their mean is N(0, 1/R) and (R - 1) s^2 is chi-square with R - 1 degrees
# of freedom.  Each check is two-sided at a 5e-5 false-failure chance, so
# a correct engine fails the test with probability at most 1e-4:
#   |mean z| <= 4.0556 / sqrt(40) = 0.641   (4.0556 = normal quantile 1 - 2.5e-5)
#   0.574 <= s <= 1.481                     (sqrt of chi2_39 quantiles
#                                            12.868 and 85.498, over 39)
CALIBRATION_SEEDS = range(1, 41)
CALIBRATION_MEAN_BOUND = 0.641
CALIBRATION_SD_BOUNDS = (0.574, 1.481)


@criterion("criterion 3 (replicate-seed calibration of the Monte-Carlo stderr)")
def test_c3_replicate_seed_calibration():
    start = time.perf_counter()
    cfg = config_from_dict({**PRESETS["fig4_selective"], "trials": 1000,
                            "sweep": {"axis": "eps2", "grid": [0.3]}, "noise_scales": [0.1]})
    z = []
    for seed in CALIBRATION_SEEDS:
        (row,) = run_sweep(replace(cfg, master_seed=seed))
        z.append((row.empirical_db - row.analytical_db) / row.stderr_db)
    mean, sd = float(np.mean(z)), float(np.std(z, ddof=1))
    elapsed = time.perf_counter() - start
    assert abs(mean) <= CALIBRATION_MEAN_BOUND, f"mean z {mean:+.3f} beyond +/-0.641"
    lo, hi = CALIBRATION_SD_BOUNDS
    assert lo <= sd <= hi, f"sd of z {sd:.3f} outside [{lo}, {hi}]"
    return (f"{len(z)} seeds x 1000 trials at fig4_selective eps2=0.3, noise scale 0.1: "
            f"mean z {mean:+.3f} (|.| <= 0.641), sd {sd:.3f} (in [{lo}, {hi}]), {elapsed:.1f} s")


@criterion("criterion 4 (SNR maximal at the origin, monotone, even)")
def test_c4_maximality_monotonicity_evenness():
    grid = np.arange(-10, 11) * 0.045  # 21 points, center exactly 0.0
    surface = np.array(
        [
            [
                closed_form(single_relay(BASE, cfo_direct=e1, cfo_relay=e2)).snr_linear
                for e2 in grid
            ]
            for e1 in grid
        ]
    )
    peak = np.unravel_index(np.argmax(surface), surface.shape)
    assert grid[peak[0]] == 0.0 and grid[peak[1]] == 0.0, "peak away from the origin"
    assert np.sum(surface == surface.max()) == 1, "maximum is not unique"

    axis = np.linspace(0.0, 0.45, 10)
    down1 = [closed_form(single_relay(BASE, cfo_direct=e)).snr_linear for e in axis]
    down2 = [closed_form(single_relay(BASE, cfo_relay=e)).snr_linear for e in axis]
    assert np.all(np.diff(down1) < 0) and np.all(np.diff(down2) < 0), "not strictly decreasing"

    for e1, e2 in ((0.23, 0.37), (0.05, 0.41)):
        ref = closed_form(single_relay(BASE, cfo_direct=e1, cfo_relay=e2)).snr_linear
        assert closed_form(single_relay(BASE, cfo_direct=-e1, cfo_relay=e2)).snr_linear == ref
        assert closed_form(single_relay(BASE, cfo_direct=e1, cfo_relay=-e2)).snr_linear == ref
    return "unique peak at (0,0) on a 21x21 grid, strictly decreasing on each axis, even (exact)"


@criterion("criterion 5 (sensitivities: finite differences and power ratio)")
def test_c5_sensitivities():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        stats = random_stats(rng)
        pair = lambdas(single_relay(stats))
        h = 1e-6
        for attr, lam in zip(("cfo_direct", "cfo_relay"), pair):
            base_val = stats[attr]
            up = closed_form(single_relay(stats, **{attr: base_val + h})).snr_linear
            down = closed_form(single_relay(stats, **{attr: base_val - h})).snr_linear
            fd = abs(up - down) / (2 * h)
            worst = max(worst, abs(lam - fd) / fd)
    assert worst < 1e-6, f"worst relative error vs finite differences {worst:.2e} >= 1e-6"

    lambda1, lambda2 = lambdas(single_relay(upa_limit(BASE, cfo_direct=0.2, cfo_relay=0.2)))
    assert lambda2 / lambda1 == 4.0, "ratio != 4 exactly"
    return (
        f"50 random stats, worst FD relative error {worst:.2e} (< 1e-6); "
        "relay/direct slope ratio exactly 4 under asymptotic UPA"
    )


@criterion("criterion 6 (degradation grows toward high SNR)")
def test_c6_high_snr_degradation_trend():
    scales = (1.0, 0.1, 0.01)
    analytic_gaps = []
    for t in scales:
        stats = dict(
            BASE, direct_noise_var=0.1 * t, relay_noise_var=0.1 * t, dest_noise_var=0.1 * t
        )
        at_zero = closed_form(single_relay(stats)).snr_db
        at_point = closed_form(single_relay(stats, cfo_direct=0.2, cfo_relay=0.2)).snr_db
        analytic_gaps.append(at_zero - at_point)
    assert analytic_gaps[0] <= analytic_gaps[1] <= analytic_gaps[2], (
        f"analytic gaps not non-decreasing: {analytic_gaps}"
    )

    raw = copy.deepcopy(PRESETS["fig3_flat"])
    raw["relays"][0]["gain"] = {"mode": "fixed", "rho": 1.0}
    raw["trials"] = 2000
    raw["sweep"] = {"axis": "both_equal", "grid": [0.0, 0.2]}
    raw["noise_scales"] = list(scales)
    rows = run_sweep(config_from_dict(raw))  # per scale: offsets 0, then 0.2 on both links
    simulated = []
    for at_zero, at_point in zip(rows[::2], rows[1::2]):
        gap = at_zero.empirical_db - at_point.empirical_db
        spread = math.hypot(at_zero.stderr_db, at_point.stderr_db)
        simulated.append((gap, spread))
    for (g_lo, s_lo), (g_hi, s_hi) in zip(simulated, simulated[1:]):
        slack = 2.0 * math.hypot(s_lo, s_hi)
        assert g_hi >= g_lo - slack, (
            f"simulated gap decreased beyond 2*stderr: {g_hi:.3f} < {g_lo:.3f} - {slack:.3f}"
        )
    gaps = ", ".join(f"{g:.2f}" for g, _ in simulated)
    return (
        f"analytic gaps {analytic_gaps[0]:.2f} <= {analytic_gaps[1]:.2f} <= "
        f"{analytic_gaps[2]:.2f} dB; simulated gaps [{gaps}] dB non-decreasing within 2*stderr"
    )


@criterion("criterion 7 (multi-relay expression reduces correctly)")
def test_c7_multi_relay_reduction():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        stats = random_stats(rng)
        lhs = closed_form(single_relay(stats)).snr_linear
        _, _, rhs = paper_snr(**stats)
        worst = max(worst, abs(lhs - rhs) / rhs)
    assert worst < 1e-12, f"worst M=1 reduction error {worst:.2e} >= 1e-12"

    f = dirichlet_gain(0.3, 64)
    expected = (f ** 2 * 2.0 * 1.5) / ((1 - f ** 2) * 2.0 * 1.5 + 0.4)
    got = closed_form(LinkStats(64, [[2.0 * 1.5]], [[0.3]], [[0.4]])).snr_linear
    assert abs(got - expected) / expected < 1e-14, "M=0 does not reduce to point-to-point"
    return f"M=1 equals the single-relay form (worst {worst:.2e} < 1e-12); M=0 is point-to-point"


@criterion("criterion 8 (uniform-allocation gain limit and substitution)")
def test_c8_upa_limit_and_substitution():
    rho = gain_factor(RelayGainConfig(mode="upa", total_power=1e6), 2.0, 0.1)
    err = abs(rho - 1.0 / math.sqrt(2.0))
    assert err < 1e-6, f"|rho - limit| = {err:.2e} >= 1e-6 at total power 1e6"

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        stats = random_stats(rng)
        _, _, lhs = paper_snr_upa(**stats)
        rhs = closed_form(single_relay(upa_limit(stats))).snr_linear
        worst = max(worst, abs(lhs - rhs) / rhs)
    assert worst < 1e-12, f"worst substitution error {worst:.2e} >= 1e-12"
    return f"|rho - limit| = {err:.2e} (< 1e-6); substitution error {worst:.2e} (< 1e-12)"


@criterion("criterion 9 (bitwise-identical CSV across worker counts)")
def test_c9_worker_determinism(tmp_path):
    raw = copy.deepcopy(PRESETS["fig3_flat"])
    raw["sweep"] = {"axis": "eps2", "grid": [0.0, 0.2, 0.4]}
    raw["noise_scales"] = [1.0]
    raw["trials"] = 64
    outputs = {}
    for workers in (1, 8):
        cfg = config_from_dict({**raw, "workers": workers})
        rows = run_sweep(cfg)
        path = tmp_path / f"workers{workers}.csv"
        write_csv(rows, path)
        outputs[workers] = path.read_bytes()
    assert outputs[1] == outputs[8], "CSV bytes differ between 1 and 8 workers"
    return f"{len(outputs[1])} identical bytes from 1-worker and 8-worker runs"
