"""Config ingestion, Monte-Carlo points and sweeps, CSV output, determinism."""
import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import astuple, fields, replace
from itertools import chain
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afrelay import harness, relay
from afrelay.analysis import analytical_snr, snr_db
from afrelay.cli import EXIT_CONFIG, main
from afrelay.harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_digest,
    config_from_dict,
    load_config,
    point_inputs,
    run_sweep,
    write_csv,
)
from afrelay.ofdm import OfdmParams, draw_symbols
from afrelay.relay import gain_factor
from conftest import one_point, paper_snr
from moments import exact_stderr_db

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


def sweep_points(cfg):
    """Each sweep point's offsets, direct link first, and noise scaling,
    in row order: noise scales outer, grid inner."""
    return point_inputs(cfg)[0].cfos, np.repeat(cfg.noise_scales, len(cfg.sweep_grid))


def one_point_config(cfg, eps, scale=1.0):
    """cfg swept over one point: offsets eps (direct link first) held in
    the cfo fields, a one-offset grid on the direct offset and one noise
    scale."""
    links = tuple(replace(link, cfo=e) for link, e in zip(cfg.links, eps, strict=True))
    return replace(cfg, links=links, sweep_axis="eps1", sweep_grid=(eps[0],),
                   noise_scales=(scale,))


# -------------------------------------------------------------------- loading

def test_flat_preset_loads_with_expected_power_relations():
    cfg = load_config("fig3_flat")
    direct, relay = cfg.links
    assert [hop.n_taps for hop in direct.hops + relay.hops] == [1, 1, 1]
    assert direct.gain is None and relay.gain is not None
    # relay second hop at 4x the direct link's power, equal noise everywhere
    assert relay.hops[1].total_power == 4.0 * direct.hops[0].total_power
    assert direct.noise_vars == (0.1,) and relay.noise_vars == (0.1, 0.1)


def test_selective_preset_loads_with_four_tap_profiles():
    cfg = load_config("fig4_selective")
    assert [hop.n_taps for link in cfg.links for hop in link.hops] == [4, 4, 4]
    assert cfg.ofdm.cp_len >= 8  # load-time interference condition holds


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY))
    cfg = load_config(path)
    assert cfg == tiny_config()


def test_out_of_range_offset_rejected():
    raw = copy.deepcopy(TINY)
    raw["sweep"]["grid"] = [0.0, 0.6]
    with pytest.raises(ConfigError, match="0.5"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["relays"][0]["cfo"] = -0.75
    with pytest.raises(ConfigError, match="0.5"):
        config_from_dict(raw)


def test_fractional_cfo_bound_enforced():
    # the closed interval [-0.5, 0.5], the one LinkStats accepts; the message
    # names the key and the bound
    def raw(eps):
        raw = copy.deepcopy(TINY)
        raw["direct"]["cfo"] = raw["relays"][0]["cfo"] = eps
        raw["sweep"]["grid"] = [eps]
        return raw

    for eps in (0.5, -0.5):
        cfg = config_from_dict(raw(eps))
        assert [link.cfo for link in cfg.links] == [eps, eps] and cfg.sweep_grid == (eps,)
    for eps in (np.nextafter(0.5, 1), -np.nextafter(0.5, 1)):
        with pytest.raises(ConfigError, match=r"direct\.cfo=.* <= 0\.5"):
            config_from_dict(raw(float(eps)))


def test_offsets_at_half_a_subcarrier_are_accepted():
    # [-0.5, 0.5] is closed: both edges load, simulate, and the closed form
    # is even across them
    low, high = run_sweep(tiny_config(sweep={"axis": "eps2", "grid": [-0.5, 0.5]}))
    assert low.analytical_db == high.analytical_db
    assert math.isfinite(low.empirical_db) and math.isfinite(high.empirical_db)
    assert low.trials == high.trials == TINY["trials"]


def test_prefix_shorter_than_relay_memory_rejected():
    # two 4-tap hops have memory 3 + 3 = 6
    raw = copy.deepcopy(TINY)
    raw["ofdm"]["cp_len"] = 5
    raw["relays"][0]["hop1_profile"] = {"kind": "uniform", "n_taps": 4, "power": 1.0}
    raw["relays"][0]["hop2_profile"] = {"kind": "uniform", "n_taps": 4, "power": 4.0}
    with pytest.raises(ConfigError, match="inter-symbol interference"):
        config_from_dict(raw)


FLAT = {"kind": "flat", "power": 1.0}


def taps(n):
    return {"kind": "uniform", "n_taps": n, "power": 1.0}


@pytest.mark.parametrize("cp_len, direct, hop1, hop2, accepted", [
    (0, FLAT, FLAT, taps(2), False),   # the relay at memory 1
    (1, taps(3), FLAT, FLAT, False),   # the direct link at memory 2
    (2, taps(3), taps(2), taps(2), True),
    (5, taps(6), taps(3), taps(4), True),
    (5, taps(7), taps(3), taps(4), False),
    (5, taps(6), taps(3), taps(5), False),
    (5, taps(6), FLAT, taps(6), True),
    (5, taps(6), FLAT, taps(7), False),
    (0, FLAT, FLAT, FLAT, True),       # flat links have no memory
])
def test_isi_rule_bounds_each_link_by_its_total_taps(cp_len, direct, hop1, hop2, accepted):
    # the rule bounds each link's memory, L - 1 on the direct link and
    # L1 + L2 - 2 on a relay, by cp_len; each link is tried at memory
    # cp_len and cp_len + 1
    raw = copy.deepcopy(TINY)
    raw["ofdm"]["cp_len"] = cp_len
    raw["direct"]["profile"] = direct
    raw["relays"][0].update(hop1_profile=hop1, hop2_profile=hop2)
    if accepted:
        config_from_dict(raw)
    else:
        with pytest.raises(ConfigError, match="inter-symbol interference"):
            config_from_dict(raw)


def value_paths(value, path=()):
    """The path of every object member and list element inside value."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


PRESET_PATHS = [(name, path) for name in sorted(PRESETS) for path in value_paths(PRESETS[name])]

# Any value json.loads can return: NaN, infinities and unbounded integers
# included; schema words make the type checks behind them reachable.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["flat", "uniform", "exponential", "qpsk", "qam16", "fixed", "eps1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRESET_PATHS), JSON_VALUES)
@example(("fig3_flat", ("ofdm", "constellation")), ["qpsk"])
@example(("fig3_flat", ("direct", "profile")),
         {"kind": "exponential", "n_taps": 3, "power": 1.0, "decay": 5e-324})
def test_any_json_value_gives_a_config_or_a_config_error(target, value):
    # one member or element of a valid preset replaced by arbitrary JSON:
    # loading returns a config or raises ConfigError, never anything else
    name, (*parents, key) = target
    raw = copy.deepcopy(PRESETS[name])
    section = raw
    for step in parents:
        section = section[step]
    section[key] = value
    try:
        assert isinstance(config_from_dict(raw), ExperimentConfig)
    except ConfigError:
        pass


def test_unknown_keys_rejected_at_every_level():
    raw = copy.deepcopy(TINY)
    raw["typo_key"] = 1
    with pytest.raises(ConfigError, match="typo_key"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["ofdm"]["oversampling"] = 2
    with pytest.raises(ConfigError, match="oversampling"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["relays"][0]["gain"]["alpha"] = 1.0
    with pytest.raises(ConfigError, match="alpha"):
        config_from_dict(raw)


@pytest.mark.parametrize("mode", list(relay._GAIN_PARAMS))
def test_every_gain_parameter_parses(mode):
    # the config's gain keys are RelayGainConfig's fields, which are
    # `mode` and the parameters of relay._GAIN_PARAMS
    assert {f.name for f in fields(relay.RelayGainConfig)} == {
        "mode", *chain.from_iterable(relay._GAIN_PARAMS.values())}
    params = {key: 0.5 + i for i, key in enumerate(relay._GAIN_PARAMS[mode])}
    raw = copy.deepcopy(TINY)
    raw["relays"][0]["gain"] = {"mode": mode, **params}
    assert config_from_dict(raw).links[1].gain == relay.RelayGainConfig(mode, **params)
    raw["relays"][0]["gain"]["gain_typo"] = 1.0
    with pytest.raises(ConfigError, match="gain_typo"):
        config_from_dict(raw)


def test_parse_errors_are_distinct(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_value_invariants_reported_with_key_names():
    raw = copy.deepcopy(TINY)
    raw["trials"] = 0
    with pytest.raises(ConfigError, match="trials"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["relays"] = []
    with pytest.raises(ConfigError, match="relays"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["noise_scales"] = [1.0, 0.0]
    with pytest.raises(ConfigError, match="noise_scales"):
        config_from_dict(raw)
    raw = copy.deepcopy(TINY)
    raw["sweep"]["axis"] = "eps3"
    with pytest.raises(ConfigError, match="eps3"):
        config_from_dict(raw)
    for key, value, message in (("workers", 0, "workers must be >= 1"),
                                ("master_seed", -1, "master_seed must be a 64-bit"),
                                ("master_seed", 2 ** 64, "master_seed must be a 64-bit"),
                                ("noise_scales", 5, "noise_scales must be a non-empty list"),
                                ("noise_scales", [], "noise_scales must be a non-empty list")):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({**copy.deepcopy(TINY), key: value})


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
    with pytest.raises(ConfigError, match="total power must be > 0"):
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
    with pytest.raises(ConfigError, match=f"{key}: .*n_taps has {10 ** 15} taps"):
        config_from_dict(raw)


@pytest.mark.parametrize("section", ["ofdm", "direct", "sweep"])
def test_non_object_section_rejected(section):
    raw = copy.deepcopy(TINY)
    raw[section] = 5
    with pytest.raises(ConfigError, match=f"{section} must be an object"):
        config_from_dict(raw)


@pytest.mark.parametrize("where", [
    ("direct", "noise_var"), ("relays", 0, "relay_noise_var"), ("relays", 1, "dest_noise_var"),
], ids=["direct", "relay0_relay_noise", "relay1_dest_noise"])
def test_negative_noise_variance_rejected_with_key_name(where, tmp_path, capsys):
    raw = copy.deepcopy(TINY)
    raw["relays"].append(copy.deepcopy(raw["relays"][0]))
    *parents, key = where
    section = raw
    for name in parents:
        section = section[name]
    section[key] = -0.1
    context = "".join(f"[{name}]" if isinstance(name, int) else name for name in parents)
    message = f"{context}.{key} must be >= 0"
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(raw)
    path = tmp_path / "negative_noise.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ('"noise_var": 0.1', '"noise_var": NaN', "direct.noise_var"),
    ('"noise_scales": [1.0]', '"noise_scales": [Infinity]', "config.noise_scales[0]"),
    ('"noise_var": 0.1', '"noise_var": 1' + "0" * 400, "direct.noise_var"),
], ids=["nan", "infinity", "huge_integer"])
def test_non_finite_numbers_rejected_with_key_names(tmp_path, old, new, key):
    # Python's json reads NaN, Infinity and integers beyond the float range
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(TINY).replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be finite")):
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
    # nested fields count too, down to a relay's gain, a profile's taps,
    # every field of the direct link and the number of relays
    direct, relay = TINY["direct"], TINY["relays"][0]
    for changed in (
        tiny_config(ofdm={**TINY["ofdm"], "constellation": "qam16"}),
        tiny_config(relays=[{**relay, "gain": {"mode": "upa", "total_power": 3.0}}]),
        tiny_config(relays=[{**relay, "hop2_profile": {"kind": "uniform", "n_taps": 2,
                                                       "power": 4.0}}]),
        tiny_config(noise_scales=[1.0, 0.1]),
        tiny_config(direct={**direct, "cfo": 0.1}),
        tiny_config(direct={**direct, "noise_var": 0.2}),
        tiny_config(direct={**direct, "profile": {"kind": "flat", "power": 2.0}}),
        tiny_config(relays=[relay, relay]),
    ):
        assert config_digest(changed) != config_digest(a)


# ------------------------------------------------------------ one-point sweeps

def test_degenerate_point_returns_infinite_sentinel_on_both_sides():
    raw = copy.deepcopy(TINY)
    raw["direct"]["noise_var"] = 0.0
    raw["relays"][0]["relay_noise_var"] = 0.0
    raw["relays"][0]["dest_noise_var"] = 0.0
    raw["relays"][0]["gain"] = {"mode": "fixed", "rho": 1.0}
    (row,) = run_sweep(one_point_config(config_from_dict(raw), (0.0, 0.0)))
    assert math.isinf(row.analytical_db)
    assert math.isinf(row.empirical_db)
    assert row.stderr_db == 0.0


def test_monte_carlo_tracks_closed_form():
    cfg = replace(load_config("fig3_flat"), trials=2000)
    (row,) = run_sweep(one_point_config(cfg, (0.0, 0.2)))
    gap = abs(row.empirical_db - row.analytical_db)
    assert gap < max(0.3, 3.0 * row.stderr_db)


def test_identical_results_across_worker_counts():
    serial = one_point_config(tiny_config(workers=1), (0.1, 0.2))
    parallel = one_point_config(tiny_config(workers=8), (0.1, 0.2))
    assert run_sweep(serial) == run_sweep(parallel)  # bitwise-identical floats


def test_block_stream_is_independent_of_worker_count(monkeypatch):
    # three full blocks and a short one of half a block
    starts, reduced = [], []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    def recording_aggregate(powers, cfos):
        reduced.append(powers)
        return aggregate(powers, cfos)

    aggregate = harness._aggregate_trials
    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # a 3-way split on any host
    monkeypatch.setattr(harness, "_aggregate_trials", recording_aggregate)
    size = harness.block_size(tiny_config().ofdm)
    trials = 3 * size + size // 2
    raw = copy.deepcopy(TINY)
    raw["trials"] = trials
    empirical, rows = {}, {}
    for workers in (1, 2, 3):
        cfg = config_from_dict({**raw, "workers": workers})
        (empirical[workers],) = run_sweep(one_point_config(cfg, (0.1, 0.2)))
        before = len(starts)
        rows[workers] = run_sweep(cfg)
        assert len(starts) - before <= 1
    assert starts == [2, 2, 3, 3]  # workers=1 never starts a pool
    assert empirical[1] == empirical[2] == empirical[3]  # bitwise-identical floats
    # every point of every run reduced all its per-trial power pairs, the
    # one-point run and the two-point sweep each in one call, and each
    # table is bitwise that of one worker
    assert [powers.shape for powers in reduced] == [(2, 1, trials), (2, 2, trials)] * 3
    for one, two in zip(reduced[2::2], reduced[3::2]):  # workers 2 and 3
        assert np.array_equal(one, reduced[0]) and np.array_equal(two, reduced[1])
    assert empirical[1].trials == trials
    assert rows[1] == rows[2] == rows[3]


def test_pool_never_outnumbers_the_cpus(monkeypatch):
    # a sweep asks for at most os.cpu_count() processes, whatever `workers`
    # says, and with one range (or an unknown count) for no pool; the
    # stand-in pool runs its tasks in this process and starts none
    asked = []

    class RecordingPool:
        map = staticmethod(map)

        def __init__(self, max_workers, mp_context):
            asked.append(max_workers)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    trials = 5 * harness.block_size(tiny_config().ofdm)
    serial = run_sweep(tiny_config(trials=trials))
    for cpus, workers, expected in ((2, 500, [2]), (4, 3, [3]), (8, 500, [5]),
                                    (1, 500, []), (None, 500, [])):
        asked.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_sweep(tiny_config(trials=trials, workers=workers)) == serial
        assert asked == expected


def test_import_loads_no_process_pool_or_hashlib():
    # only a sweep with workers > 1 starts a pool and only config_digest
    # hashes, so `import afrelay` leaves both modules to their first use;
    # the pool class still resolves as harness.ProcessPoolExecutor
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import afrelay\n"
        "names = ('multiprocessing', 'concurrent.futures.process', 'hashlib')\n"
        "print([m for m in names if m in sys.modules and m not in before])\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "print(afrelay.harness.ProcessPoolExecutor is ProcessPoolExecutor)\n"
        "print(hasattr(afrelay.harness, 'ThreadPoolExecutor'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split("\n") == ["[]", "True", "False", ""]


def test_sweep_draws_each_block_once(monkeypatch):
    # every point shares the block streams, so a sweep of P points draws
    # each block once rather than P times, in one engine call on the
    # block's own generator, and each point's empirical columns are still
    # those of the point run alone
    draws, calls = [], []

    def counting_draw_symbols(params, rng, trials, out=None):
        draws.append(trials)
        return draw_symbols(params, rng, trials, out)

    def counting_simulate_block(plan, rng, trials, buffers=None):
        calls.append((type(rng), trials))
        return simulate_block(plan, rng, trials, buffers)

    size = harness.block_size(tiny_config().ofdm)
    raw = copy.deepcopy(TINY)
    raw["trials"] = 3 * size + size // 2  # three full blocks and a short one
    raw["sweep"]["grid"] = [0.0, 0.2, 0.4]
    raw["noise_scales"] = [1.0, 0.1]
    cfg = config_from_dict(raw)
    simulate_block = harness.simulate_block
    monkeypatch.setattr(relay, "draw_symbols", counting_draw_symbols)
    monkeypatch.setattr(harness, "simulate_block", counting_simulate_block)
    rows = run_sweep(cfg)
    assert len(rows) == 6
    assert draws == [size] * 3 + [size // 2]
    assert calls == [(np.random.Generator, size)] * 3 + [(np.random.Generator, size // 2)]
    for row, eps, scale in zip(rows, *sweep_points(cfg)):
        (alone,) = run_sweep(one_point_config(cfg, eps.tolist(), scale))
        assert (row.empirical_db, row.stderr_db) == (alone.empirical_db, alone.stderr_db)


def test_trial_powers_join_the_blocks_in_block_order():
    # three full blocks of B trials and a short one of B // 2: the table is
    # block b's powers, on default_rng([master_seed, b]), at trials
    # [B b, B (b + 1))
    size = harness.block_size(tiny_config().ofdm)
    cfg = tiny_config(trials=3 * size + size // 2)
    stats, rho = point_inputs(cfg)
    plan = relay.sweep_plan(cfg.ofdm, [link.hops for link in cfg.links], rho, stats)
    blocks = [relay.simulate_block(plan, np.random.default_rng([cfg.master_seed, b]), trials)
              for b, trials in enumerate([size] * 3 + [size // 2])]
    powers = harness.trial_powers(cfg, rho, stats)
    assert powers.shape == (2, 2, cfg.trials) and powers.dtype == np.float64
    assert np.array_equal(powers, np.concatenate(blocks, axis=-1))


def test_block_size_follows_the_transmitted_symbol_length():
    sizes = {(n, cp): harness.block_size(OfdmParams(n_subcarriers=n, cp_len=cp))
             for n, cp in ((64, 16), (256, 64), (1024, 64), (16384, 1), (65536, 1))}
    assert sizes == {(64, 16): 819, (256, 64): 204, (1024, 64): 60, (16384, 1): 3,
                     (65536, 1): 1}


# Two warm-up sweeps, then the mean minor page faults of five more.
FAULTS_PER_SWEEP = """
import json, resource, sys
from afrelay.harness import config_from_dict, run_sweep
cfg = config_from_dict(json.loads(sys.argv[1]))
run_sweep(cfg)
run_sweep(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    run_sweep(cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_warm_n1024_sweep_takes_no_fresh_pages():
    # every block of a range draws and transforms in one set of (B, N)
    # buffers, so a warm sweep of 2 blocks (60 and 40 trials) at N = 1024
    # faults in no fresh pages: per-block (60, 1024) arrays take 697 minor
    # faults a sweep; the one set takes 480 in the second sweep (the first
    # whose 1.97 MB set comes from the heap, not mmap: one fault per 4 KB
    # page), which is why two sweeps warm up, and 0 after it.  The count
    # depends on the heap's history, so it is taken in a fresh
    # interpreter: after other tests even per-block arrays may find their
    # pages already mapped.
    hop = lambda power: {"kind": "exponential", "n_taps": 16, "power": power, "decay": 4.0}
    relay = {"hop1_profile": hop(1.0), "hop2_profile": hop(4.0), "cfo": 0.0,
             "relay_noise_var": 0.1, "dest_noise_var": 0.1,
             "gain": {"mode": "upa", "total_power": 2.0}}
    raw = {"ofdm": {"n_subcarriers": 1024, "cp_len": 64},
           "direct": {"profile": hop(1.0), "cfo": 0.0, "noise_var": 0.1},
           "relays": [relay] * 4, "sweep": {"axis": "eps2", "grid": [0.0, 0.2, 0.4]},
           "noise_scales": [1.0, 0.1], "trials": 100, "master_seed": 777, "mode": "both",
           "workers": 1}
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", FAULTS_PER_SWEEP, json.dumps(raw)],
                         capture_output=True, text=True, env=env, check=True)
    assert float(run.stdout) < 100


def test_tiny_noise_zero_offset_point_is_finite():
    # only a residual of exactly 0 is the infinity sentinel: at noise scale
    # 1e-26 the zero-offset point's SNR is near 272 dB, finite on both sides
    cfg = replace(load_config("fig3_flat"), trials=408)
    (row,) = run_sweep(one_point_config(cfg, (0.0, 0.0), 1e-26))
    assert math.isfinite(row.analytical_db) and math.isfinite(row.empirical_db)
    assert abs(row.empirical_db - row.analytical_db) < max(0.3, 3.0 * row.stderr_db)


def test_stderr_shrinks_like_inverse_root_trials():
    cfg = one_point_config(load_config("fig3_flat"), (0.0, 0.2))
    stderr = {}
    for trials in (500, 2000, 8000):
        (row,) = run_sweep(replace(cfg, trials=trials))
        stderr[trials] = row.stderr_db
    assert stderr[500] / stderr[2000] == pytest.approx(2.0, rel=0.2)
    assert stderr[2000] / stderr[8000] == pytest.approx(2.0, rel=0.2)


# The exact stderr of flat QPSK branches (`moments.exact_stderr_db`) against
# the estimator's at 20,400 trials (25 blocks at N = 64, the last short):
# over seeds 1-400 the 8,000 ratios of both configs below read 0.951-1.078,
# per-point medians 0.997-1.000 and sds 0.013-0.021, right-skewed as
# |h1 h2|^2 is heavy-tailed.
# Dropping the sum |W_b|^2 |W_c|^2 / N^2 from E L_b L_c moves seven of the
# 20 points to 0.19-0.87, and dropping the covariance moves most to >= 1.17.
EXACT_STDERR_BOUNDS = (0.92, 1.12)


def test_stderr_matches_exact_value_for_flat_qpsk_branches():
    # fig3_flat, and fig3_flat plus a flat relay held at -0.2 with fixed
    # gain 0.7 while the direct offset moves
    one = {**copy.deepcopy(PRESETS["fig3_flat"]), "trials": 20400, "mode": "simulate"}
    two = copy.deepcopy(one)
    two["relays"].append(dict(two["relays"][0], cfo=-0.2, gain={"mode": "fixed", "rho": 0.7}))
    two["sweep"]["axis"] = "eps1"
    lo, hi = EXACT_STDERR_BOUNDS
    for raw in (one, two):
        cfg = config_from_dict(raw)
        ratio = np.array([row.stderr_db for row in run_sweep(cfg)]) / exact_stderr_db(cfg)
        assert np.all((lo <= ratio) & (ratio <= hi)), ratio


@pytest.mark.parametrize("trials", [2, 3, 102, 2000])
def test_one_pass_stderr_matches_three_term_delta_method(trials):
    # var(sig/ms - res/mr) is vs/ms^2 + vr/mr^2 - 2 cov/(ms mr), written out
    rng = np.random.default_rng(trials)
    common = rng.exponential(1.0, trials)
    sig = 50.0 * (common + rng.exponential(0.5, trials))
    res = 3.0 * (common + rng.exponential(2.0, trials))
    ms, mr = np.mean(sig), np.mean(res)
    vs, vr = np.var(sig, ddof=1), np.var(res, ddof=1)
    cov = np.cov(sig, res, ddof=1)[0, 1]
    var_log = (vs / ms ** 2 + vr / mr ** 2 - 2.0 * cov / (ms * mr)) / trials
    (db,), (stderr_db,) = harness._aggregate_trials(np.array([[sig], [res]]), np.zeros((1, 2)))
    assert db == pytest.approx(10.0 * math.log10(np.sum(sig) / np.sum(res)), rel=1e-12)
    assert stderr_db == pytest.approx(10.0 / math.log(10.0) * math.sqrt(var_log), rel=1e-12)


def test_estimator_edge_points():
    # a regular point; a residual total of exactly 0, the closed form's
    # den == 0, is the infinity sentinel (inf, 0); a signal total of 0 has
    # no finite dB and no standard error
    powers = np.random.default_rng(5).exponential(1.0, (2, 3, 50))
    powers[1, 1] = powers[0, 2] = 0.0
    db, stderr_db = harness._aggregate_trials(powers, np.zeros((3, 2)))
    assert db.shape == stderr_db.shape == (3,)
    assert np.array_equal(db, snr_db(*np.sum(powers, -1))[1])  # the closed form's rule
    sig, res = powers[:, 0]
    assert db[0] == pytest.approx(10.0 * math.log10(np.sum(sig) / np.sum(res)), rel=1e-12)
    assert 0.0 < stderr_db[0] < math.inf
    assert (db[1], stderr_db[1]) == (math.inf, 0.0)
    assert db[2] == -math.inf and math.isnan(stderr_db[2])


def test_estimator_reads_the_closed_forms_db():
    # with one trial a point's totals are exactly the closed form's num and
    # den, and both sides then read bitwise the same dB, sentinel included
    raw = copy.deepcopy(TINY)
    raw["sweep"]["grid"] = [0.0, 0.1, 0.3]
    raw["direct"]["noise_var"] = raw["relays"][0]["relay_noise_var"] = 0.0
    raw["relays"][0]["dest_noise_var"] = 0.0
    raw["relays"][0]["gain"] = {"mode": "fixed", "rho": 1.0}
    cfg = config_from_dict(raw)
    snr = analytical_snr(point_inputs(cfg)[0])
    assert snr.den[0] == 0.0 and np.all(snr.den[1:] > 0)
    db, stderr_db = harness._aggregate_trials(np.stack([snr.num, snr.den])[..., None],
                                              np.zeros((3, 2)))
    assert np.array_equal(db, snr.snr_db)
    assert db[0] == math.inf and stderr_db[0] == 0.0


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


# The slope of the empirical SNR in dB against one offset axis is a central
# difference over eps +- h; both points see the same draws (common random
# numbers), so its standard error is paired, from each trial's influence on
# both ratios.  It is compared with the closed form's central difference at
# the same h, not the exact slope (they differ by 4% at eps2 = 0.1).  Three
# slopes at two centres each give six z-scores, each bounded at a 1e-4 / 6
# false-failure chance (Bonferroni, as the per-branch moment test in
# test_relay.py).  At seeds 1-5 and the preset's the largest |z| read 2.5,
# and the largest stderr 0.8% of the slope (lambda1 at eps1 = 0.1).
SLOPE_Z_BOUND = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * 6))


@pytest.mark.parametrize("axis, relays", [("eps2", 1), ("eps1", 1), ("eps2", 2)],
                         ids=["lambda2-one-relay", "lambda1", "lambda2-two-relays"])
def test_empirical_slope_matches_closed_form_difference(axis, relays):
    # lambda1 moves the direct offset; lambda2 moves every relay's offset,
    # here of one relay or of two equal flat relays
    h, centres = 0.02, (0.1, 0.3)
    raw = copy.deepcopy(PRESETS["fig3_flat"])
    raw["relays"] *= relays
    raw.update(noise_scales=[0.1], trials=4000)
    raw["sweep"] = {"axis": axis, "grid": [c + d for c in centres for d in (-h, h)]}
    cfg = config_from_dict(raw)
    stats, rho = point_inputs(cfg)
    sig, res = harness.trial_powers(cfg, rho, stats)
    ms, mr = sig.mean(-1), res.mean(-1)
    db = 10.0 * np.log10(ms / mr)
    influence = sig / ms[:, None] - res / mr[:, None]  # each trial's, on each log ratio
    closed = analytical_snr(stats).snr_db
    for lo, hi in ((0, 1), (2, 3)):
        slope = (db[hi] - db[lo]) / (2 * h)
        paired = 10.0 / math.log(10.0) * (influence[hi] - influence[lo]) / (2 * h)
        stderr = paired.std(ddof=1) / math.sqrt(cfg.trials)
        expected = (closed[hi] - closed[lo]) / (2 * h)
        assert abs(slope - expected) <= SLOPE_Z_BOUND * stderr, (slope, expected, stderr)
        assert stderr < 0.01 * abs(expected)  # the pairing resolves the slope to 1%


def test_multi_relay_point_matches_multi_branch_closed_form():
    raw = copy.deepcopy(TINY)
    raw["relays"] = [copy.deepcopy(raw["relays"][0]), copy.deepcopy(raw["relays"][0])]
    raw["relays"][1]["hop2_profile"] = {"kind": "uniform", "n_taps": 2, "power": 2.0}
    raw["relays"][1]["cfo"] = 0.1
    raw["trials"] = 2000
    (row,) = run_sweep(one_point_config(config_from_dict(raw), (0.05, 0.2, 0.1)))
    gap = abs(row.empirical_db - row.analytical_db)
    assert gap < max(0.3, 3.0 * row.stderr_db)


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


def one_point_columns(cfg, i):
    """analytical_db, lambda1 and lambda2 of sweep point i evaluated alone,
    from its own one-point inputs."""
    cfos, scales = sweep_points(cfg)
    stats, _ = point_inputs(one_point_config(cfg, cfos[i].tolist(), scales[i]))
    snr = one_point(analytical_snr(stats))
    if snr.den == 0.0:
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
    assert len(calls) == len(cfg.noise_scales) * (len(cfg.links) - 1)  # per scale and relay
    cfos = point_inputs(cfg)[0].cfos
    assert len(rows) == len(cfos) == 18
    for i, row in enumerate(rows):
        assert (row.eps1, row.eps2) == (cfos[i, 0], cfos[i, 1])
        assert (row.analytical_db, row.lambda1, row.lambda2) == one_point_columns(cfg, i)


@pytest.mark.parametrize("axis", ["eps1", "eps2", "both_equal"])
def test_single_relay_sweep_matches_paper_formula(axis):
    # the general gain written out, rho = sqrt(P_R / (s_H2 P_S + s_Z2)) with
    # P_S != P_R, and a symbol power other than 1, so that neither a swap of
    # the two powers nor a branch weight without s_X goes unseen
    raw = three_relay_raw(axis)
    raw["relays"] = raw["relays"][1:2]  # the general-gain relay
    for symbol_power in (1.0, 0.37):
        raw["ofdm"]["symbol_power"] = symbol_power
        cfg = config_from_dict(raw)
        direct, relay = cfg.links
        (direct_hop,), (hop1, hop2) = direct.hops, relay.hops
        (direct_noise,), (relay_noise, dest_noise) = direct.noise_vars, relay.noise_vars
        source_power, relay_power = relay.gain.source_power, relay.gain.relay_power
        assert (source_power, relay_power) == (1.5, 2.5)
        for row, eps, scale in zip(run_sweep(cfg), *sweep_points(cfg)):
            _, _, snr = paper_snr(
                direct_gain_var=direct_hop.total_power,
                hop1_gain_var=hop1.total_power,
                hop2_gain_var=hop2.total_power,
                symbol_power=symbol_power,
                direct_noise_var=direct_noise * scale,
                relay_noise_var=relay_noise * scale,
                dest_noise_var=dest_noise * scale,
                cfo_direct=eps[0],
                cfo_relay=eps[1],
                rho=math.sqrt(relay_power / (hop1.total_power * source_power
                                             + relay_noise * scale)),
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
    for i, row in enumerate(rows):
        if row.eps1 == 0.0:
            assert row.analytical_db == math.inf
            assert row.lambda1 is None and row.lambda2 is None
        else:
            assert math.isfinite(row.analytical_db)
            assert row.lambda1 > 0.0 and row.lambda2 > 0.0
        assert (row.analytical_db, row.lambda1, row.lambda2) == one_point_columns(cfg, i)
    assert sum(row.analytical_db == math.inf for row in rows) == len(cfg.noise_scales)


def test_analytical_sweep_builds_no_simulator_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulator run for an analytical sweep")

    monkeypatch.setattr(harness, "simulate_block", refuse)
    assert len(run_sweep(config_from_dict(three_relay_raw("eps2")))) == 18


def test_engine_reads_the_closed_form_table(monkeypatch):
    # one point table for both sides: the sweep's one engine plan is built
    # from the very LinkStats object the closed form evaluates, with rho in
    # its layout, and every engine call gets that plan
    seen = {"analytical": [], "plans": [], "engine": []}

    def closed_form(stats):
        seen["analytical"].append(stats)
        return analytical_snr(stats)

    def plan(params, hops, rho, stats):
        assert rho.shape == stats.cfos.shape and len(hops) == stats.cfos.shape[1]
        seen["plans"].append((stats, sweep_plan(params, hops, rho, stats)))
        return seen["plans"][-1][1]

    def engine(plan, rng, trials, buffers=None):
        seen["engine"].append(plan)
        return simulate_block(plan, rng, trials, buffers)

    simulate_block, sweep_plan = harness.simulate_block, harness.sweep_plan
    monkeypatch.setattr(harness, "analytical_snr", closed_form)
    monkeypatch.setattr(harness, "sweep_plan", plan)
    monkeypatch.setattr(harness, "simulate_block", engine)
    raw = three_relay_raw("eps2")
    raw.update(mode="both", trials=2 * harness.block_size(OfdmParams(**raw["ofdm"])))
    run_sweep(config_from_dict(raw))
    (stats,) = seen["analytical"]
    ((planned, built),) = seen["plans"]
    assert planned is stats
    assert len(seen["engine"]) == 2 and all(p is built for p in seen["engine"])


def test_engine_builds_its_tables_once_per_sweep(monkeypatch):
    # the offsets' tables depend only on the sweep: a sweep of 7 blocks
    # computes the Dirichlet gain as often as a sweep of one
    calls = []

    def counting_gain(eps, n):
        calls.append(n)
        return dirichlet_gain(eps, n)

    dirichlet_gain = relay.dirichlet_gain
    monkeypatch.setattr(relay, "dirichlet_gain", counting_gain)
    counts = []
    for blocks in (1, 7):
        raw = three_relay_raw("eps2")
        raw.update(mode="simulate", trials=blocks * harness.block_size(OfdmParams(**raw["ofdm"])))
        calls.clear()
        run_sweep(config_from_dict(raw))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 1


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


@pytest.mark.parametrize("n", [2 ** 31, 2 ** 40, 10 ** 300], ids=["2^31", "2^40", "10^300"])
def test_closed_form_keeps_its_cfo_loss_at_huge_n(n):
    # fig3_flat at eps2 = 0.2, noise scale 1: the CFO loss tends to a limit
    # as N grows, and N = 2**28 is already there; N = 2**31 once read the
    # zero-offset 12.02 dB and lambda2 278.6 in place of 7.49 dB and 38.2
    def point(n):
        raw = copy.deepcopy(PRESETS["fig3_flat"])
        raw["ofdm"]["n_subcarriers"], raw["mode"] = n, "analytical"
        raw["sweep"]["grid"], raw["noise_scales"] = [0.2], [1.0]
        (row,) = run_sweep(config_from_dict(raw))
        return row
    reference, row = point(2 ** 28), point(n)
    assert reference.analytical_db == pytest.approx(7.4929, abs=1e-4)
    assert row.analytical_db == pytest.approx(reference.analytical_db, abs=1e-6)
    assert row.lambda2 == pytest.approx(reference.lambda2, rel=1e-6)
    assert row.lambda2 == pytest.approx(38.2, abs=0.05)


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
    stats, _ = point_inputs(cfg)
    assert stats.noise_vars[:, 0].tolist() == [0.1 * s for s in (1.0, 1.0, 0.1, 0.1)]
    assert stats.cfos[:, 1].tolist() == [0.0, 0.2, 0.0, 0.2]


def test_simulate_mode_leaves_analytical_columns_empty():
    cfg = tiny_config(mode="simulate", trials=16)
    rows = run_sweep(cfg)
    assert all(r.analytical_db is None and r.lambda1 is None for r in rows)
    assert all(r.empirical_db is not None for r in rows)


# fig3_flat and fig4_selective have one closed form, since a profile enters
# it only by its total power, so their empirical degradations from the
# zero-offset point estimate one number.  Their difference is bounded
# two-sided in units of the four points' combined stderr.  That z is
# heavy-tailed (|h1 h2|^2 is): over master seeds 100001-140000 at 4,095
# trials, 4 of 40,000 runs had a point beyond 4.5 (2 in each half), a
# false-failure chance near 1e-4 per run, and the largest read 5.5.  The
# one-sided check it replaces, selective >= flat - 2 stderrs at 600
# trials, failed 732 of the first 20,000 of those seeds.
DEGRADATION_Z_BOUND = 4.5


def test_selective_and_flat_presets_degrade_alike():
    degradations = {}
    for name in ("fig3_flat", "fig4_selective"):
        raw = copy.deepcopy(PRESETS[name])
        raw["sweep"] = {"axis": "eps2", "grid": [0.0, 0.2, 0.4]}
        raw["noise_scales"] = [1.0]
        raw["trials"] = 4095  # 5 blocks of 819
        zero, *rows = run_sweep(config_from_dict(raw))
        degradations[name] = [(zero.analytical_db - row.analytical_db,
                               zero.empirical_db - row.empirical_db,
                               math.hypot(zero.stderr_db, row.stderr_db)) for row in rows]
    for (closed_flat, flat, se_flat), (closed_sel, sel, se_sel) in zip(*degradations.values()):
        assert closed_sel == pytest.approx(closed_flat, rel=1e-12)
        assert abs(sel - flat) <= DEGRADATION_Z_BOUND * math.hypot(se_flat, se_sel)


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
    assert replace(cfg).trials == cfg.trials
    assert replace(cfg, trials=10).trials == 10
    with pytest.raises(ConfigError):
        replace(cfg, mode="surface")
    with pytest.raises(ConfigError):
        replace(cfg, trials=0)
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        replace(cfg, workers=0)
    with pytest.raises(ConfigError, match="master_seed"):
        replace(cfg, master_seed=-1)


# ------------------------------------------------------------- the row table

@pytest.mark.parametrize("mode", harness.MODES)
def test_row_table_fields_and_on_row_in_every_mode(mode):
    seen = []
    rows = run_sweep(tiny_config(mode=mode, trials=8, noise_scales=[1.0, 0.5]), on_row=seen.append)
    assert len(rows) == 4
    assert len(seen) == len(rows) and all(a is b for a, b in zip(seen, rows))
    for row in rows:
        assert all(type(v) in (float, int, type(None)) for v in astuple(row)), row
        changed = replace(row, analytical_db=1.5)
        assert type(changed) is harness.SweepRow and changed.analytical_db == 1.5


def noise_free_fixed_gain_config():
    """Two equal noise-free relays at fixed gain rho = 1, every offset moved
    together over -0.0, 0.0 and 0.1 at two noise scalings: the SNR is
    infinite exactly at the zero offsets."""
    raw = copy.deepcopy(TINY)
    raw["direct"]["noise_var"] = 0.0
    relay = dict(raw["relays"][0], relay_noise_var=0.0, dest_noise_var=0.0,
                 gain={"mode": "fixed", "rho": 1.0})
    raw["relays"] = [relay, dict(relay, hop2_profile={"kind": "flat", "power": 2.0})]
    raw.update(sweep={"axis": "both_equal", "grid": [-0.0, 0.0, 0.1]},
               noise_scales=[1.0, 0.1], mode="analytical")
    return config_from_dict(raw)


def test_slopes_are_none_exactly_at_the_sentinel():
    cfg = noise_free_fixed_gain_config()
    rows = run_sweep(cfg)
    snr = analytical_snr(point_inputs(cfg)[0])
    assert [row.analytical_db == math.inf for row in rows] == (snr.den == 0.0).tolist() == [
        True, True, False] * 2
    for row, slopes in zip(rows, snr.slopes.tolist()):
        if row.analytical_db == math.inf:
            assert row.lambda1 is None and row.lambda2 is None
        else:  # bitwise: lambda2 sums the relays' slopes in branch order
            assert row.lambda1.hex() == abs(slopes[0]).hex()
            assert row.lambda2.hex() == abs(slopes[1] + slopes[2]).hex()


def per_field_line(row) -> str:
    """The CSV line of a row with each field formatted on its own: empty
    for None, 9 significant digits for a float (a subclass formats
    itself), str() otherwise."""
    values = (getattr(row, f.name) for f in fields(row))  # astuple would deep-copy objects
    return ",".join("" if v is None else format(v, ".9g") if isinstance(v, float) else str(v)
                    for v in values)


def test_csv_lines_equal_the_per_field_reference(tmp_path):
    rows = run_sweep(replace(noise_free_fixed_gain_config(), mode="both", trials=8))
    write_csv(rows, tmp_path / "out.csv")
    header, *lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
    assert header == harness.CSV_HEADER and len(lines) == len(rows)
    assert lines == [per_field_line(row) for row in rows]
    assert [line.split(",")[0] for line in lines] == ["-0", "0", "0.1"] * 2


class TaggedFloat(float):
    """A float subclass with its own __format__, which the writer must call."""

    def __format__(self, spec):
        return "~" + float.__format__(self, spec)


class Label:
    """A field with its own __str__, whose `%` signs must reach the CSV as text."""

    def __init__(self, k):
        self.k = k

    def __str__(self):
        return f"label%s{self.k}%%"


CHUNK = harness._CSV_CHUNK_ROWS
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1e300, -1e-300, 1.7976931348623157e308, 0.1]
FIELD_KINDS = {
    "float": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
    "none": st.none(),
    "int": st.one_of(st.integers(), st.sampled_from([2 ** 53 + 1, -(2 ** 53) - 3, -(2 ** 70)])),
    "bool": st.booleans(),
    "float_subclass": st.floats().map(TaggedFloat),
    "label": st.integers(0, 99).map(Label),
}
FIELD_KINDS["mixed"] = st.one_of(*FIELD_KINDS.values())


@st.composite
def csv_tables(draw):
    """More than one chunk of rows, cut into up to six segments.  In each
    segment every column cycles through a few values of one drawn kind, so
    a column's types change inside chunks and across them."""
    total = draw(st.integers(CHUNK + 1, CHUNK + CHUNK // 2))
    cuts = sorted(draw(st.sets(st.one_of(st.just(CHUNK), st.integers(1, total - 1)),
                               max_size=5)))
    rows = []
    for start, stop in zip([0, *cuts], [*cuts, total]):
        pools = [draw(st.lists(FIELD_KINDS[draw(st.sampled_from(list(FIELD_KINDS)))],
                               min_size=1, max_size=4)) for _ in harness.CSV_HEADER.split(",")]
        rows += [harness.SweepRow(*(pool[i % len(pool)] for pool in pools))
                 for i in range(start, stop)]
    return rows


# exactly one chunk, a None arriving in float columns on its last row
ONE_CHUNK = [harness.SweepRow(0.001 * i, -0.0, None if i == CHUNK - 1 else 1.0 / (i + 1),
                              None, None if i == CHUNK - 1 else math.nan, True,
                              TaggedFloat(i), 2 ** 53 + i, Label(i))
             for i in range(CHUNK)]


@settings(max_examples=15, deadline=None)
@given(rows=csv_tables())
@example(rows=[])
@example(rows=ONE_CHUNK)
def test_chunked_csv_equals_the_per_field_reference(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(rows, out)
    header, *lines = out.read_text(encoding="utf-8").split("\n")
    assert header == harness.CSV_HEADER
    assert lines == [per_field_line(row) for row in rows] + [""]
