"""Config ingestion, Monte-Carlo points and sweeps, CSV output, determinism."""
import copy
import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from afrelay import harness, relay
from afrelay.harness import (
    PRESETS,
    ConfigError,
    ConfigKeyError,
    ConfigParseError,
    ConfigValueError,
    PointAssignment,
    config_digest,
    config_from_dict,
    load_config,
    run_point,
    run_sweep,
    sweep_offsets,
    with_overrides,
    write_csv,
)
from afrelay.ofdm import draw_symbols
from afrelay.relay import gain_factor
from conftest import paper_snr

TINY = {
    "ofdm": {"n_subcarriers": 64, "cp_len": 16, "constellation": "qpsk", "symbol_power": 1.0},
    "direct": {"profile": {"kind": "flat", "power": 1.0}, "cfo": 0.0, "noise_var": 0.1},
    "relays": [
        {
            "hop1_profile": {"kind": "flat", "power": 1.0},
            "hop2_profile": {"kind": "flat", "power": 4.0},
            "cfo": 0.0,
            "relay_noise_var": 0.1,
            "dest_noise_var": 0.1,
            "gain": {"mode": "upa", "total_power": 2.0},
        }
    ],
    "sweep": {"axis": "eps2", "grid": [0.0, 0.2]},
    "noise_scales": [1.0],
    "trials": 64,
    "master_seed": 777,
    "mode": "both",
}

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def tiny_config(**updates):
    raw = copy.deepcopy(TINY)
    raw.update(updates)
    return config_from_dict(raw)


# -------------------------------------------------------------------- loading

def test_flat_preset_loads_with_expected_power_relations():
    cfg = load_config("fig3_flat")
    assert cfg.direct_profile.n_taps == 1
    spec = cfg.relays[0]
    assert spec.hop1_profile.n_taps == spec.hop2_profile.n_taps == 1
    # relay second hop at 4x the direct link's power, equal noise everywhere
    assert spec.hop2_profile.total_power == 4.0 * cfg.direct_profile.total_power
    assert cfg.direct_noise_var == spec.relay_noise_var == spec.dest_noise_var


def test_selective_preset_loads_with_four_tap_profiles():
    cfg = load_config("fig4_selective")
    assert cfg.direct_profile.n_taps == 4
    assert cfg.relays[0].hop1_profile.n_taps == 4
    assert cfg.relays[0].hop2_profile.n_taps == 4
    assert cfg.ofdm.cp_len >= 8  # load-time interference condition holds


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY))
    cfg = load_config(path)
    assert cfg == tiny_config()


def test_out_of_range_offset_rejected():
    raw = copy.deepcopy(TINY)
    raw["sweep"]["grid"] = [0.0, 0.6]
    with pytest.raises(ConfigValueError, match="0.5"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["relays"][0]["cfo"] = -0.75
    with pytest.raises(ConfigValueError, match="0.5"):
        config_from_dict(raw)


def test_prefix_shorter_than_relay_memory_rejected():
    raw = copy.deepcopy(TINY)
    raw["ofdm"]["cp_len"] = 6
    raw["relays"][0]["hop1_profile"] = {"kind": "uniform", "n_taps": 4, "power": 1.0}
    raw["relays"][0]["hop2_profile"] = {"kind": "uniform", "n_taps": 4, "power": 4.0}
    with pytest.raises(ConfigValueError, match="inter-symbol interference"):
        config_from_dict(raw)


def test_unknown_keys_rejected_at_every_level():
    raw = copy.deepcopy(TINY)
    raw["typo_key"] = 1
    with pytest.raises(ConfigKeyError, match="typo_key"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["ofdm"]["oversampling"] = 2
    with pytest.raises(ConfigKeyError, match="oversampling"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["relays"][0]["gain"]["alpha"] = 1.0
    with pytest.raises(ConfigKeyError, match="alpha"):
        config_from_dict(raw)


def test_parse_errors_are_distinct(tmp_path):
    with pytest.raises(ConfigParseError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigParseError, match="not valid JSON"):
        load_config(bad)


def test_value_invariants_reported_with_key_names():
    raw = copy.deepcopy(TINY)
    raw["trials"] = 0
    with pytest.raises(ConfigValueError, match="trials"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["relays"] = []
    with pytest.raises(ConfigValueError, match="relays"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["noise_scales"] = [1.0, 0.0]
    with pytest.raises(ConfigValueError, match="noise_scales"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["sweep"]["axis"] = "eps3"
    with pytest.raises(ConfigValueError, match="eps3"):
        config_from_dict(raw)


@pytest.mark.parametrize("where", [
    ("direct", "profile"), ("relays", 0, "hop1_profile"), ("relays", 0, "hop2_profile"),
], ids=["direct", "hop1", "hop2"])
@pytest.mark.parametrize("profile", [
    {"kind": "flat", "power": 0.0},
    {"kind": "uniform", "n_taps": 3, "power": 0.0},
    {"kind": "exponential", "n_taps": 2, "power": 0.0},
], ids=["flat", "uniform", "exponential"])
def test_zero_power_profile_rejected(where, profile):
    # every link is a closed-form branch, which needs a positive power
    raw = copy.deepcopy(TINY)
    *parents, key = where
    section = raw
    for name in parents:
        section = section[name]
    section[key] = profile
    with pytest.raises(ConfigValueError, match="total power must be > 0"):
        config_from_dict(raw)


@pytest.mark.parametrize("where", [("direct", "profile"), ("relays", 0, "hop2_profile")],
                         ids=["direct", "hop2"])
@pytest.mark.parametrize("kind", ["uniform", "exponential"])
def test_oversized_tap_count_rejected_before_allocation(where, kind):
    # 10**15 taps would need petabytes: the count alone breaks the ISI rule
    raw = copy.deepcopy(TINY)
    *parents, key = where
    section = raw
    for name in parents:
        section = section[name]
    section[key] = {"kind": kind, "n_taps": 10 ** 15, "power": 1.0}
    with pytest.raises(ConfigValueError, match=f"{key}: .*n_taps has {10 ** 15} taps"):
        config_from_dict(raw)


@pytest.mark.parametrize("section", ["ofdm", "direct", "sweep"])
def test_non_object_section_rejected(section):
    raw = copy.deepcopy(TINY)
    raw[section] = 5
    with pytest.raises(ConfigValueError, match=f"{section} must be an object"):
        config_from_dict(raw)


@pytest.mark.parametrize("old, new, key", [
    ('"noise_var": 0.1', '"noise_var": NaN', "direct.noise_var"),
    ('"noise_scales": [1.0]', '"noise_scales": [Infinity]', "config.noise_scales[0]"),
    ('"noise_var": 0.1', '"noise_var": 1' + "0" * 400, "direct.noise_var"),
], ids=["nan", "infinity", "huge_integer"])
def test_non_finite_numbers_rejected_with_key_names(tmp_path, old, new, key):
    # Python's json reads NaN, Infinity and integers beyond the float range
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(TINY).replace(old, new))
    with pytest.raises(ConfigValueError, match=re.escape(f"{key} must be finite")):
        load_config(path)


def test_presets_all_valid():
    for name in [*PRESETS, EXAMPLES / "cfo_surface.json"]:
        cfg = load_config(name)
        assert cfg.trials >= 1


def test_digest_ignores_workers_but_tracks_experiment_fields():
    a = tiny_config()
    b = tiny_config(workers=8)
    c = tiny_config(master_seed=778)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)


# ------------------------------------------------------------------ run_point

def test_degenerate_point_returns_infinite_sentinel_on_both_sides():
    raw = copy.deepcopy(TINY)
    raw["direct"]["noise_var"] = 0.0
    raw["relays"][0]["relay_noise_var"] = 0.0
    raw["relays"][0]["dest_noise_var"] = 0.0
    raw["relays"][0]["gain"] = {"mode": "fixed", "rho": 1.0}
    cfg = config_from_dict(raw)
    empirical, breakdown = run_point(cfg, PointAssignment(0.0, (0.0,), 1.0))
    assert math.isinf(breakdown.snr_db)
    assert math.isinf(empirical.snr_db)
    assert empirical.stderr_db == 0.0


def test_monte_carlo_tracks_closed_form():
    cfg = with_overrides(load_config("fig3_flat"), trials=2000)
    empirical, breakdown = run_point(cfg, PointAssignment(0.0, (0.2,), 1.0))
    gap = abs(empirical.snr_db - breakdown.snr_db)
    assert gap < max(0.3, 3.0 * empirical.stderr_db)


def test_identical_results_across_worker_counts():
    serial = tiny_config(workers=1)
    parallel = tiny_config(workers=8)
    point = PointAssignment(0.1, (0.2,), 1.0)
    emp1, _ = run_point(serial, point)
    emp8, _ = run_point(parallel, point)
    assert emp1 == emp8  # bitwise-identical floats


def test_block_stream_is_independent_of_worker_count(monkeypatch):
    # 357 trials at N=64 are three full 102-trial blocks and a short one
    starts = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    raw = copy.deepcopy(TINY)
    raw["trials"] = 357
    point = PointAssignment(0.1, (0.2,), 1.0)
    empirical, rows = {}, {}
    for workers in (1, 2, 3):
        cfg = config_from_dict({**raw, "workers": workers})
        assert harness.block_size(cfg.ofdm) == 102
        empirical[workers], _ = run_point(cfg, point)
        before = len(starts)
        rows[workers] = run_sweep(cfg)
        assert len(starts) - before <= 1
    assert starts == [2, 2, 3, 3]  # workers=1 never starts a pool
    assert empirical[1] == empirical[2] == empirical[3]  # bitwise-identical floats
    assert empirical[1].trials == 357
    assert rows[1] == rows[2] == rows[3]


def test_sweep_draws_each_block_once(monkeypatch):
    # every point shares the block streams, so a sweep of P points draws
    # each block once rather than P times, and each point's empirical
    # columns are still those of the point run alone
    draws = []

    def counting_draw_symbols(params, rng, trials):
        draws.append(trials)
        return draw_symbols(params, rng, trials)

    raw = copy.deepcopy(TINY)
    raw["trials"] = 357  # three full 102-trial blocks and a short one
    raw["sweep"]["grid"] = [0.0, 0.2, 0.4]
    raw["noise_scales"] = [1.0, 0.1]
    cfg = config_from_dict(raw)
    monkeypatch.setattr(relay, "draw_symbols", counting_draw_symbols)
    rows = run_sweep(cfg)
    assert len(rows) == 6
    assert draws == [102, 102, 102, 51]
    for row, point in zip(rows, sweep_points(cfg)):
        empirical, _ = run_point(cfg, point)
        assert (row.empirical_db, row.stderr_db) == (empirical.snr_db, empirical.stderr_db)


def test_stderr_shrinks_like_inverse_root_trials():
    cfg = load_config("fig3_flat")
    point = PointAssignment(0.0, (0.2,), 1.0)
    stderr = {}
    for trials in (500, 2000, 8000):
        emp, _ = run_point(with_overrides(cfg, trials=trials), point)
        stderr[trials] = emp.stderr_db
    assert stderr[500] / stderr[2000] == pytest.approx(2.0, rel=0.2)
    assert stderr[2000] / stderr[8000] == pytest.approx(2.0, rel=0.2)


def test_multi_relay_sensitivities_match_finite_differences():
    # two relays at offsets of opposite signs, swept on the direct offset;
    # lambda2 is the slope when both relay offsets shift together
    raw = copy.deepcopy(TINY)
    raw["relays"] = [copy.deepcopy(raw["relays"][0]), copy.deepcopy(raw["relays"][0])]
    raw["relays"][0]["cfo"] = 0.2
    raw["relays"][1]["cfo"] = -0.35
    raw["relays"][1]["hop2_profile"] = {"kind": "uniform", "n_taps": 2, "power": 2.0}
    raw["sweep"] = {"axis": "eps1", "grid": [-0.3, 0.1, 0.25]}
    raw["mode"] = "analytical"
    h = 1e-6

    def snr(raw, eps1=0.0, shift=0.0):
        shifted = copy.deepcopy(raw)
        shifted["sweep"]["grid"] = [g + eps1 for g in raw["sweep"]["grid"]]
        for relay in shifted["relays"]:
            relay["cfo"] += shift
        return np.array([10.0 ** (r.analytical_db / 10.0)
                         for r in run_sweep(config_from_dict(shifted))])

    rows = run_sweep(config_from_dict(raw))
    fd1 = np.abs(snr(raw, eps1=h) - snr(raw, eps1=-h)) / (2 * h)
    fd2 = np.abs(snr(raw, shift=h) - snr(raw, shift=-h)) / (2 * h)
    for row, d1, d2 in zip(rows, fd1, fd2):
        assert abs(row.lambda1 - d1) / d1 < 1e-6
        assert abs(row.lambda2 - d2) / d2 < 1e-6


def test_multi_relay_point_matches_multi_branch_closed_form():
    raw = copy.deepcopy(TINY)
    raw["relays"] = [copy.deepcopy(raw["relays"][0]), copy.deepcopy(raw["relays"][0])]
    raw["relays"][1]["hop2_profile"] = {"kind": "uniform", "n_taps": 2, "power": 2.0}
    raw["relays"][1]["cfo"] = 0.1
    raw["trials"] = 2000
    cfg = config_from_dict(raw)
    empirical, breakdown = run_point(cfg, PointAssignment(0.05, (0.2, 0.1), 1.0))
    gap = abs(empirical.snr_db - breakdown.snr_db)
    assert gap < max(0.3, 3.0 * empirical.stderr_db)


# ------------------------------------------------- one closed form per sweep

def three_relay_raw(axis):
    """Three relays with mixed gain modes and profiles, swept on `axis`
    over several noise scalings, analytical only."""
    raw = copy.deepcopy(TINY)
    relay = raw["relays"][0]
    raw["relays"] = [
        {**relay, "cfo": 0.15, "gain": {"mode": "fixed", "rho": 0.7}},
        {**relay, "cfo": -0.3, "relay_noise_var": 0.05,
         "hop2_profile": {"kind": "uniform", "n_taps": 2, "power": 2.0},
         "gain": {"mode": "general", "source_power": 1.5, "relay_power": 2.5}},
        {**relay, "cfo": 0.42, "dest_noise_var": 0.3,
         "hop1_profile": {"kind": "exponential", "n_taps": 3, "power": 0.8, "decay": 2.0},
         "gain": {"mode": "upa_asymptotic"}},
    ]
    raw["direct"]["cfo"] = -0.05
    raw["sweep"] = {"axis": axis, "grid": [-0.45, -0.2, 0.0, 0.1, 0.33, 0.45]}
    raw["noise_scales"] = [1.0, 0.1, 1e-3]
    raw["mode"] = "analytical"
    return raw


def sweep_points(cfg):
    """Every sweep point as the PointAssignment `run_point` takes."""
    cfos, scales = sweep_offsets(cfg)
    return [PointAssignment(eps[0], tuple(eps[1:]), scale)
            for eps, scale in zip(cfos.tolist(), scales.tolist())]


def one_point_columns(cfg, point):
    """analytical_db, lambda1 and lambda2 of one point evaluated alone."""
    _, snr = run_point(cfg, point)
    if snr.slopes is None:
        return snr.snr_db, None, None
    return snr.snr_db, abs(snr.slopes[0]), abs(sum(snr.slopes[1:]))


@pytest.mark.parametrize("axis", ["eps1", "eps2", "both_equal"])
def test_sweep_rows_equal_one_point_evaluations(axis, monkeypatch):
    calls = []

    def counting_gain_factor(*args):
        calls.append(args)
        return gain_factor(*args)

    monkeypatch.setattr(harness, "gain_factor", counting_gain_factor)
    cfg = config_from_dict(three_relay_raw(axis))
    rows = run_sweep(cfg)
    assert len(calls) == len(cfg.noise_scales) * len(cfg.relays)  # once per scale and relay
    points = sweep_points(cfg)
    assert len(rows) == len(points) == 18
    for row, point in zip(rows, points):
        assert (row.eps1, row.eps2) == (point.direct_cfo, point.relay_cfos[0])
        assert (row.analytical_db, row.lambda1, row.lambda2) == one_point_columns(cfg, point)


@pytest.mark.parametrize("axis", ["eps1", "eps2", "both_equal"])
def test_single_relay_sweep_matches_paper_formula(axis):
    raw = three_relay_raw(axis)
    raw["relays"] = raw["relays"][1:2]  # the general-gain relay
    cfg = config_from_dict(raw)
    (spec,) = cfg.relays
    for row, point in zip(run_sweep(cfg), sweep_points(cfg)):
        scale = point.noise_scale
        _, _, snr = paper_snr(
            direct_gain_var=cfg.direct_profile.total_power,
            hop1_gain_var=spec.hop1_profile.total_power,
            hop2_gain_var=spec.hop2_profile.total_power,
            symbol_power=cfg.ofdm.symbol_power,
            direct_noise_var=cfg.direct_noise_var * scale,
            relay_noise_var=spec.relay_noise_var * scale,
            dest_noise_var=spec.dest_noise_var * scale,
            cfo_direct=point.direct_cfo,
            cfo_relay=point.relay_cfos[0],
            rho=gain_factor(spec.gain, spec.hop1_profile.total_power,
                            spec.relay_noise_var * scale),
            n_subcarriers=cfg.ofdm.n_subcarriers,
        )
        assert row.analytical_db == pytest.approx(10.0 * math.log10(snr), rel=1e-12)


def test_noise_free_sweep_is_infinite_only_at_zero_offsets():
    raw = three_relay_raw("both_equal")
    raw["direct"]["noise_var"] = 0.0
    for relay in raw["relays"]:
        relay["relay_noise_var"] = relay["dest_noise_var"] = 0.0
    cfg = config_from_dict(raw)
    rows = run_sweep(cfg)
    for row, point in zip(rows, sweep_points(cfg)):
        if row.eps1 == 0.0:
            assert row.analytical_db == math.inf
            assert row.lambda1 is None and row.lambda2 is None
        else:
            assert math.isfinite(row.analytical_db)
            assert row.lambda1 > 0.0 and row.lambda2 > 0.0
        assert (row.analytical_db, row.lambda1, row.lambda2) == one_point_columns(cfg, point)
    assert sum(row.analytical_db == math.inf for row in rows) == len(cfg.noise_scales)


def test_analytical_sweep_builds_no_simulator_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulator path built for an analytical sweep")

    monkeypatch.setattr(harness, "DirectPath", refuse)
    monkeypatch.setattr(harness, "RelayPath", refuse)
    assert len(run_sweep(config_from_dict(three_relay_raw("eps2")))) == 18


# ------------------------------------------------------------------- run_sweep

def test_analytical_sweep_is_fast_and_has_empty_empirical_columns():
    import time

    raw = copy.deepcopy(TINY)
    raw["sweep"]["grid"] = list(np.linspace(-0.45, 0.45, 50))
    raw["mode"] = "analytical"
    cfg = config_from_dict(raw)
    start = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(rows) == 50
    assert all(r.empirical_db is None and r.stderr_db is None for r in rows)
    assert all(r.analytical_db is not None for r in rows)


def test_sweep_maximum_sits_at_zero_offset():
    raw = copy.deepcopy(TINY)
    raw["sweep"] = {"axis": "both_equal", "grid": [0.0, 0.1, 0.2, 0.3, 0.4]}
    raw["mode"] = "analytical"
    rows = run_sweep(config_from_dict(raw))
    best = max(rows, key=lambda r: r.analytical_db)
    assert best.eps1 == 0.0 and best.eps2 == 0.0


def test_sweep_rows_ordered_noise_scale_outer_grid_inner():
    raw = copy.deepcopy(TINY)
    raw["noise_scales"] = [1.0, 0.1]
    raw["mode"] = "analytical"
    cfg = config_from_dict(raw)
    cfos, scales = sweep_offsets(cfg)
    assert scales.tolist() == [1.0, 1.0, 0.1, 0.1]
    assert cfos[:, 1].tolist() == [0.0, 0.2, 0.0, 0.2]


def test_simulate_mode_leaves_analytical_columns_empty():
    cfg = tiny_config(mode="simulate", trials=16)
    rows = run_sweep(cfg)
    assert all(r.analytical_db is None and r.lambda1 is None for r in rows)
    assert all(r.empirical_db is not None for r in rows)


def test_selective_preset_degrades_at_least_as_much_as_flat():
    # matched sweep points, degradation measured from each preset's own
    # zero-offset point; selective >= flat within twice the combined stderr
    # of all four points (the zero-offset references have the largest)
    results = {}
    for name in ("fig3_flat", "fig4_selective"):
        raw = copy.deepcopy(PRESETS[name])
        raw["sweep"] = {"axis": "eps2", "grid": [0.0, 0.2, 0.4]}
        raw["noise_scales"] = [1.0]
        raw["trials"] = 600
        rows = run_sweep(config_from_dict(raw))
        results[name] = rows
    flat_zero, sel_zero = results["fig3_flat"][0], results["fig4_selective"][0]
    for flat_row, sel_row in zip(results["fig3_flat"][1:], results["fig4_selective"][1:]):
        flat_deg = flat_zero.empirical_db - flat_row.empirical_db
        sel_deg = sel_zero.empirical_db - sel_row.empirical_db
        slack = 2.0 * math.sqrt(sum(
            r.stderr_db ** 2 for r in (flat_zero, flat_row, sel_zero, sel_row)
        ))
        assert sel_deg >= flat_deg - slack


# ------------------------------------------------------------------- write_csv

EXPECTED_HEADER = "eps1,eps2,analytical_db,empirical_db,stderr_db,lambda1,lambda2,trials,seed"


def test_csv_header_exact_and_round_trip(tmp_path):
    cfg = tiny_config(trials=16)
    rows = run_sweep(cfg)
    out = tmp_path / "results.csv"
    write_csv(rows, out)
    text = out.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == EXPECTED_HEADER
    parsed = list(csv.DictReader(text.splitlines()))
    assert len(parsed) == len(rows)
    for row, rec in zip(rows, parsed):
        assert float(rec["eps1"]) == pytest.approx(row.eps1, rel=1e-8)
        assert float(rec["analytical_db"]) == pytest.approx(row.analytical_db, rel=1e-8)
        assert float(rec["empirical_db"]) == pytest.approx(row.empirical_db, rel=1e-8)
        assert int(rec["trials"]) == row.trials
        assert int(rec["seed"]) == cfg.master_seed


def test_empty_table_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_csv([], out)
    assert out.read_text(encoding="utf-8") == EXPECTED_HEADER + "\n"


def test_infinite_sentinel_renders_as_inf(tmp_path):
    raw = copy.deepcopy(TINY)
    raw["direct"]["noise_var"] = 0.0
    raw["relays"][0]["relay_noise_var"] = 0.0
    raw["relays"][0]["dest_noise_var"] = 0.0
    raw["relays"][0]["gain"] = {"mode": "fixed", "rho": 1.0}
    raw["sweep"]["grid"] = [0.0]
    raw["trials"] = 4
    rows = run_sweep(config_from_dict(raw))
    out = tmp_path / "sentinel.csv"
    write_csv(rows, out)
    data_line = out.read_text(encoding="utf-8").strip().split("\n")[1]
    fields = data_line.split(",")
    assert fields[2] == "inf" and fields[3] == "inf"


def test_write_csv_failure_names_path(tmp_path):
    with pytest.raises(RuntimeError, match="cannot write CSV"):
        write_csv([], tmp_path)  # a directory is not writable as a file


def test_analytical_mode_empirical_fields_empty_in_csv(tmp_path):
    cfg = tiny_config(mode="analytical")
    rows = run_sweep(cfg)
    out = tmp_path / "surface.csv"
    write_csv(rows, out)
    line = out.read_text(encoding="utf-8").strip().split("\n")[1]
    fields = line.split(",")
    assert fields[3] == "" and fields[4] == ""  # empirical_db, stderr_db


def test_overrides_validate():
    cfg = tiny_config()
    assert with_overrides(cfg).trials == cfg.trials
    assert with_overrides(cfg, trials=10).trials == 10
    with pytest.raises(ConfigError):
        with_overrides(cfg, mode="surface")
    with pytest.raises(ConfigError):
        with_overrides(cfg, trials=0)
