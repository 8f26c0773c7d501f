"""Experiment configuration, seeded Monte-Carlo sweeps, and CSV output.

A config describes one topology, the OFDM numerology and `links`, one
`LinkSpec` per link, direct link first, each read by `_parse_link`; plus a
CFO sweep: which offset axis moves, the grid it moves over, and the noise
scalings at which the sweep repeats.  `run_sweep` evaluates the
closed-form SNR and/or the Monte-Carlo estimate at every point, builds each
output column once, and returns the table as `SweepRow`s, whose fields
are the CSV's columns; both dB columns come from one rule,
`analysis.snr_db`.  `write_csv` formats a chunk of rows at a
time, with one `%` conversion per column chosen from the column's types,
and writes the bytes of formatting each field on its own.  `point_inputs`
is the one builder that turns a config into both sides' inputs at its P
sweep points, noise scales outer and grid inner, in one loop over
`links`: the closed form's `LinkStats` with a leading point axis, the
points' offsets included, and the relay gains in the same (P, M + 1)
layout.  Every config problem raises `ConfigError`.  The closed form
evaluates the stats once per sweep; when the mode simulates,
`trial_powers` builds `relay.sweep_plan` from the same stats object, with
the gains and each link's hops, once per sweep, and every block's engine
call reads that plan.  The engine's per-trial powers
reach the estimator as one (2, P, trials) array, signal then residual.

Noise convention: configured noise variances are per received frequency
bin, the same quantities the closed-form SNR consumes.  Each branch's
noise s_b (the destination's noise plus rho^2 times the relay's) is
formed once, in `point_inputs`, and both sides read it per bin from the
one `LinkStats`.  The engine draws no noise: it adds the noise's exact
conditional mean, N s_b, to each trial's residual.

Reproducibility: trials run in blocks of B = max(1, 65536 // (N + cp_len))
(819 at N=64 with cp 16, 60 at N=1024 with cp 64), a size fixed by the
numerology alone.  Block b covers trials [bB, (b+1)B), the last one
possibly short, and is one `simulate_block` call on numpy's
default_rng([master_seed, b]), which draws in the order that function
documents.  The stream has no point index: every point of a sweep uses
the same block streams (common random numbers), so the points' empirical
columns are correlated.  Each block is drawn once per sweep and simulated
at every point.  A pool task is a contiguous range of blocks covering
every point, and a sweep has no more tasks than `os.cpu_count()`; the
blocks' powers are joined in block order and each point's are reduced in
trial order, so the result is bitwise independent of `workers`.  The
process pool and `hashlib` are imported on first use, not with the package.
"""
from __future__ import annotations

import json
import math
import os
from itertools import chain, islice, repeat
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .analysis import LinkStats, analytical_snr, snr_db
from .channel import (
    PowerDelayProfile,
    exponential_profile,
    flat_profile,
    require_isi_free,
    uniform_profile,
)
from .ofdm import OfdmParams
from .relay import RelayGainConfig, gain_factor, simulate_block, sweep_plan
from .transforms import FCFO_BOUND

SWEEP_AXES = ("eps1", "eps2", "both_equal")
MODES = ("analytical", "simulate", "both")

# Transmitted samples per random-stream block, prefix included: B =
# max(1, BLOCK_SAMPLES // (N + cp_len)), 819 at N=64 (cp 16), 204 at N=256
# (cp 64) and 60 at N=1024 (cp 64).  Every block pays once for its
# generator, its engine call and its per-point reductions, so fewer, larger
# blocks are faster.  Against 16384 samples, the best of repeated
# in-process `run_sweep` calls (2-vCPU Xeon, numpy 2.4) read:
#   fig3_flat (N=64)             1.10x at 400 trials, 1.41x at 4,080
#   fig4_selective (N=64)        1.17x at 2,000, 1.21x at 4,080
#   33-tap hops at N=256         1.07x at 816, 1.13x at 1,632
#   wide4_n1024 (N=1024)         1.15x at 100, 1.12x at 600, 1.26x at 1,200
# The engine's (2, B, N) buffers grow with it: peak RSS on the benchmark's
# wide4_n1024 rose from 40.1 to 42.3 MB.
BLOCK_SAMPLES = 65536


class ConfigError(Exception):
    """Any problem with an experiment configuration: a source that cannot
    be read or parsed, an unknown key, or a value that breaks an invariant."""


@dataclass(frozen=True)
class LinkSpec:
    """Config-level description of one link: the direct link, one hop and
    gain None, or a relay, two hops and a gain rule.  `noise_vars` holds
    the per-bin variance of the noise received at the end of each hop."""

    hops: tuple
    noise_vars: tuple
    cfo: float
    gain: RelayGainConfig | None


@dataclass(frozen=True)
class ExperimentConfig:
    ofdm: OfdmParams
    links: tuple  # LinkSpec per link, direct link first
    sweep_axis: str
    sweep_grid: tuple
    noise_scales: tuple
    trials: int
    master_seed: int
    mode: str
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass(slots=True)
class SweepRow:  # one CSV line, fields in column order
    eps1: float
    eps2: float
    analytical_db: float | None
    empirical_db: float | None
    stderr_db: float | None
    lambda1: float | None
    lambda2: float | None
    trials: int
    seed: int


_COLUMNS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_COLUMNS)
_row_fields = attrgetter(*_COLUMNS)


# --------------------------------------------------------------------------
# presets

PRESETS = {
    # Flat (single-tap) fading on every hop; relay's second hop carries 4x
    # the direct link's average power, all links share one noise variance,
    # relay gain from uniform power allocation.
    "fig3_flat": {
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
        "sweep": {"axis": "eps2", "grid": [0.0, 0.1, 0.2, 0.3, 0.4]},
        "noise_scales": [1.0, 0.1],
        "trials": 2000,
        "master_seed": 20260808,
        "mode": "both",
    },
    # Frequency-selective variant: 4 equal-power taps per hop, same link
    # powers and noise relations as fig3_flat.
    "fig4_selective": {
        "ofdm": {"n_subcarriers": 64, "cp_len": 16, "constellation": "qpsk", "symbol_power": 1.0},
        "direct": {
            "profile": {"kind": "uniform", "n_taps": 4, "power": 1.0},
            "cfo": 0.0,
            "noise_var": 0.1,
        },
        "relays": [
            {
                "hop1_profile": {"kind": "uniform", "n_taps": 4, "power": 1.0},
                "hop2_profile": {"kind": "uniform", "n_taps": 4, "power": 4.0},
                "cfo": 0.0,
                "relay_noise_var": 0.1,
                "dest_noise_var": 0.1,
                "gain": {"mode": "upa", "total_power": 2.0},
            }
        ],
        "sweep": {"axis": "eps2", "grid": [0.0, 0.1, 0.2, 0.3, 0.4]},
        "noise_scales": [1.0, 0.1],
        "trials": 2000,
        "master_seed": 20260808,
        "mode": "both",
    },
}

PRESET_INFO = {
    "fig3_flat": "flat fading, relay second hop at 4x direct power, UPA gain, eps2 sweep",
    "fig4_selective": "4-tap uniform profiles per hop, otherwise as fig3_flat",
}


# --------------------------------------------------------------------------
# config parsing

def _check_keys(raw: dict, allowed, context: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}; allowed keys: {sorted(allowed)}")


def _require(raw: dict, key: str, context: str):
    if key not in raw:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return raw[key]


def _as_number(value, key: str, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # JSON admits NaN and Infinity
        raise ConfigError(f"{context}.{key} must be finite, got {value!r}")
    return number


def _as_int(value, key: str, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}.{key} must be an integer, got {value!r}")
    return value


# Keys of each profile kind; `power` is the profile's total power.
PROFILE_KEYS = {
    "flat": {"kind", "power"},
    "uniform": {"kind", "n_taps", "power"},
    "exponential": {"kind", "n_taps", "power", "decay"},
}


def _parse_profile(raw, context: str, cp_len: int) -> PowerDelayProfile:
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object, got {raw!r}")
    kind = _require(raw, "kind", context)
    if kind not in list(PROFILE_KEYS):  # a list compares unhashable values too
        raise ConfigError(f"{context}.kind must be one of {list(PROFILE_KEYS)}, got {kind!r}")
    _check_keys(raw, PROFILE_KEYS[kind], context)
    power = _as_number(_require(raw, "power", context), "power", context)
    try:
        if kind == "flat":  # one tap, no memory
            profile = flat_profile(power)
        else:
            n_taps = _as_int(_require(raw, "n_taps", context), "n_taps", context)
            # no hop may outgrow the prefix; checked before n_taps sizes an array
            require_isi_free(cp_len, [n_taps], "n_taps")
            profile = uniform_profile(n_taps, power) if kind == "uniform" else exponential_profile(
                n_taps, power, _as_number(raw.get("decay", 1.0), "decay", context))
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    # every link is a closed-form branch, whose coherent power must be > 0;
    # the taps of a subnormal power can underflow to 0
    if not profile.total_power > 0:
        raise ConfigError(f"{context}: total power must be > 0, got {power!r} "
                          f"(taps summing to {profile.total_power!r})")
    return profile


def _parse_gain(raw, context: str) -> RelayGainConfig:
    allowed = [f.name for f in fields(RelayGainConfig)]
    _check_keys(raw, allowed, context)
    kwargs = {}
    for key in allowed:
        if key in raw:
            kwargs[key] = raw[key] if key == "mode" else _as_number(raw[key], key, context)
    try:
        return RelayGainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_cfo(value, key: str, context: str) -> float:
    eps, name = _as_number(value, key, context), f"{context}.{key}"
    if abs(eps) > FCFO_BOUND:  # the closed interval LinkStats accepts
        raise ConfigError(f"{name}={eps!r} is not a fractional CFO: require |{name}| <= "
                          f"{FCFO_BOUND} (integer offsets are assumed already corrected)")
    return eps


def _parse_link(raw, context: str, cp_len: int, hop_keys, noise_keys, gain: bool) -> LinkSpec:
    """One link from its config object: `hop_keys` name its profiles and
    `noise_keys` the noise at the end of each hop, in hop order; a relay
    (`gain` true) also names its gain rule."""
    _check_keys(raw, {*hop_keys, *noise_keys, "cfo"} | ({"gain"} if gain else set()), context)
    noise_vars = tuple(_as_number(_require(raw, key, context), key, context) for key in noise_keys)
    for key, var in zip(noise_keys, noise_vars):
        if var < 0:
            raise ConfigError(f"{context}.{key} must be >= 0, got {var!r}")
    hops = tuple(_parse_profile(_require(raw, key, context), f"{context}.{key}", cp_len)
                 for key in hop_keys)
    # the inter-symbol interference rule for the cascade of the link's hops
    try:
        require_isi_free(cp_len, [hop.n_taps for hop in hops], context)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LinkSpec(
        hops=hops,
        noise_vars=noise_vars,
        cfo=_parse_cfo(raw.get("cfo", 0.0), "cfo", context),
        gain=_parse_gain(_require(raw, "gain", context), f"{context}.gain") if gain else None,
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and fully validate an ExperimentConfig from plain data."""
    allowed = {
        "ofdm", "direct", "relays", "sweep", "noise_scales",
        "trials", "master_seed", "mode", "workers",
    }
    _check_keys(raw, allowed, "config")

    ofdm_raw = _require(raw, "ofdm", "config")
    _check_keys(ofdm_raw, {"n_subcarriers", "cp_len", "constellation", "symbol_power"}, "ofdm")
    try:
        ofdm = OfdmParams(
            n_subcarriers=_as_int(_require(ofdm_raw, "n_subcarriers", "ofdm"), "n_subcarriers", "ofdm"),
            cp_len=_as_int(_require(ofdm_raw, "cp_len", "ofdm"), "cp_len", "ofdm"),
            constellation=ofdm_raw.get("constellation", "qpsk"),
            symbol_power=_as_number(ofdm_raw.get("symbol_power", 1.0), "symbol_power", "ofdm"),
        )
    except ValueError as exc:
        raise ConfigError(f"ofdm: {exc}") from exc

    direct = _parse_link(_require(raw, "direct", "config"), "direct", ofdm.cp_len,
                         ("profile",), ("noise_var",), gain=False)
    relays_raw = _require(raw, "relays", "config")
    if not isinstance(relays_raw, list) or not relays_raw:
        raise ConfigError("relays must be a non-empty list of relay branches")
    relays = [_parse_link(r, f"relays[{i}]", ofdm.cp_len, ("hop1_profile", "hop2_profile"),
                          ("relay_noise_var", "dest_noise_var"), gain=True)
              for i, r in enumerate(relays_raw)]

    sweep_raw = _require(raw, "sweep", "config")
    _check_keys(sweep_raw, {"axis", "grid"}, "sweep")
    axis = _require(sweep_raw, "axis", "sweep")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid_raw = _require(sweep_raw, "grid", "sweep")
    if not isinstance(grid_raw, list) or not grid_raw:
        raise ConfigError("sweep.grid must be a non-empty list of offsets")
    grid = tuple(_parse_cfo(g, f"grid[{i}]", "sweep") for i, g in enumerate(grid_raw))

    scales_raw = raw.get("noise_scales", [1.0])
    if not isinstance(scales_raw, list) or not scales_raw:
        raise ConfigError("noise_scales must be a non-empty list of positive factors")
    scales = tuple(_as_number(s, f"noise_scales[{i}]", "config") for i, s in enumerate(scales_raw))
    if any(s <= 0 for s in scales):
        raise ConfigError("noise_scales must be > 0")

    return ExperimentConfig(
        ofdm=ofdm,
        links=(direct, *relays),
        sweep_axis=axis,
        sweep_grid=grid,
        noise_scales=scales,
        trials=_as_int(_require(raw, "trials", "config"), "trials", "config"),
        master_seed=_as_int(_require(raw, "master_seed", "config"), "master_seed", "config"),
        mode=raw.get("mode", "both"),
        workers=_as_int(raw.get("workers", 1), "workers", "config"),
    )


def load_config(path) -> ExperimentConfig:
    """Load an experiment config from a JSON file or a shipped preset name."""
    name = str(path)
    if name in PRESETS:
        return config_from_dict(PRESETS[name])
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # over-long integers, too deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def config_digest(cfg: ExperimentConfig) -> str:
    """Short stable hash of the experiment: every config field but the
    execution detail `workers`."""
    import hashlib  # only the CLI's summary line reads the digest

    payload = asdict(cfg)
    del payload["workers"]
    blob = json.dumps(payload, sort_keys=True, default=np.ndarray.tolist).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# --------------------------------------------------------------------------
# point evaluation

def point_inputs(cfg: ExperimentConfig):
    """The point table of the config's P sweep points, noise scales outer
    and grid inner, that both the closed form and the engine read.

    Returns (LinkStats with a leading point axis, rho), rho the (P, M + 1)
    gain of each point and branch, both from one loop over `cfg.links`, one
    branch per link, direct link first (gain 1): a_b = rho^2 prod P_hop s_X
    and s_b = the last noise plus rho^2 times the earlier ones, the relay's
    noise arriving amplified by its gain.  This is the one place that rule
    is applied.  The offsets, a (P, M + 1) array in `LinkStats.cfos`, hold
    each link's configured offset except where the sweep axis moves it to
    the grid value.  Each relay gain is resolved once per distinct noise
    scaling, in ascending order, and repeated over the grid.  Finite config
    values whose gain is undefined, whose a_b leaves (0, inf), whose s_b or
    whose sum_b (a_b + s_b), the closed form's num + den, overflows raise
    ConfigError.
    """
    n, sx = cfg.ofdm.n_subcarriers, cfg.ofdm.symbol_power
    levels, level_of = np.unique(cfg.noise_scales, return_inverse=True)
    table = []  # (rho, a_b, s_b) per link and noise scaling
    totals = dict.fromkeys(levels.tolist(), 0.0)  # sum_b (a_b + s_b) per noise scaling
    for i, link in enumerate(cfg.links):
        context = f"relays[{i - 1}]" if i else "direct"
        for scale in levels.tolist():
            noise = [v * scale for v in link.noise_vars]
            try:
                rho = 1.0 if link.gain is None else gain_factor(
                    link.gain, link.hops[0].total_power, noise[0])
            except ValueError as exc:  # the relay's input power underflows to 0
                raise ConfigError(f"{context}: {exc} at noise scale {scale!r}") from exc
            rho_sq = rho * rho  # a float product overflows to inf, where ** raises
            a = math.prod([rho_sq, *(h.total_power for h in link.hops), sx])
            s = noise[-1] + rho_sq * sum(noise[:-1])
            if not (0.0 < a < math.inf and math.isfinite(s)):
                raise ConfigError(f"{context}: coherent power {a!r} and noise {s!r} at noise "
                                  f"scale {scale!r} leave the range 0 < a < inf, s finite")
            table.append((rho, a, s))
            totals[scale] += a + s  # float addition: an overflow is inf, with no warning
            if totals[scale] == math.inf:
                raise ConfigError(f"branch powers and noise overflow at noise scale {scale!r}")
    grid = np.array(cfg.sweep_grid)[:, None]
    configured = [link.cfo for link in cfg.links]
    moved = [cfg.sweep_axis != "eps2"] + [cfg.sweep_axis != "eps1"] * (len(configured) - 1)
    cfos = np.tile(np.where(moved, grid, configured), (len(cfg.noise_scales), 1))
    rho, a, s = np.array(table).reshape(len(cfg.links), len(levels), 3)[
        :, np.repeat(level_of, grid.size)].T
    return LinkStats(n, a, cfos, s), rho


def block_size(params: OfdmParams) -> int:
    """Trials per random-stream block: as many transmitted symbols, prefix
    included, as fit in BLOCK_SAMPLES samples, and at least one; fixed by
    the numerology alone, never by `workers`."""
    return max(1, BLOCK_SAMPLES // (params.n_subcarriers + params.cp_len))


def __getattr__(name):
    """`ProcessPoolExecutor`, imported on first use and then kept as a module
    global, where a caller may replace it: only a sweep with workers > 1
    starts a pool, so `import afrelay` loads no process machinery."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name not in globals():
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
    return globals()[name]


def _simulate_blocks(task):
    """The (2, P, trials) powers of each block of [first, stop) in order,
    one `simulate_block` call per block on its own generator, all in one
    set of (2, B, N) buffers; an error is re-raised naming the range."""
    cfg, plan, first, stop = task
    size = block_size(cfg.ofdm)
    buffers = np.empty((2, min(size, cfg.trials), cfg.ofdm.n_subcarriers), np.complex128)
    try:
        return [simulate_block(plan, np.random.default_rng([cfg.master_seed, b]),
                               min(size, cfg.trials - b * size), buffers)
                for b in range(first, stop)]
    except Exception as exc:
        raise RuntimeError(f"blocks [{first}, {stop}): {exc}") from exc


def trial_powers(cfg: ExperimentConfig, rho, stats) -> np.ndarray:
    """The (2, P, trials) per-trial powers of the point table (rho, stats)
    that `point_inputs` returns: row 0 the signal and row 1 the residual
    of each point and trial, in trial order.

    The engine's plan of the table is built once, and the blocks split
    into at most `workers` contiguous ranges, and no more ranges than
    `os.cpu_count()`, each covering every point.  With more than one range
    one process pool runs them, one process per range.  The blocks' arrays
    are joined in block order by one concatenation, so the table does not
    depend on workers.
    """
    plan = sweep_plan(cfg.ofdm, [link.hops for link in cfg.links], rho, stats)
    size = block_size(cfg.ofdm)
    blocks = -(-cfg.trials // size)
    parts = min(cfg.workers, blocks, os.cpu_count() or 1)
    edges = [i * blocks // parts for i in range(parts + 1)]
    tasks = [(cfg, plan, a, b) for a, b in zip(edges, edges[1:])]
    pool = None
    if parts > 1:
        import multiprocessing

        pool = __getattr__("ProcessPoolExecutor")(
            max_workers=parts, mp_context=multiprocessing.get_context("spawn"))
    try:
        results = list((pool.map if pool else map)(_simulate_blocks, tasks))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return np.concatenate(list(chain.from_iterable(results)), axis=-1)


def _aggregate_trials(powers: np.ndarray, cfos: np.ndarray):
    """Ratio-of-sums estimate in dB and its delta-method standard error in
    dB of each point of the (2, P, trials) powers, signal then residual,
    as two (P,) arrays, the closed form's layout.

    The ratio of summed powers estimates the ratio of expectations, in dB
    by the closed form's `snr_db`; the per-trial (signal, residual) pairs
    give its log-domain variance, vs/ms^2 + vr/mr^2 - 2 cov/(ms mr), in one
    pass as the variance of sig/ms - res/mr.  A residual total of exactly 0,
    the closed form's den == 0, is the infinity sentinel (inf, 0), and a
    signal total of 0 is (-inf, NaN); a total that overflows raises
    `FloatingPointError` naming the first such row p by its offsets
    `cfos[p, :2]` and the total.
    """
    sig, res = powers
    trials = sig.shape[-1]
    with np.errstate(over="ignore"):  # the per-trial powers are finite: inf is overflow
        total_sig, total_res = np.sum(sig, -1), np.sum(res, -1)
    over = np.flatnonzero(np.isinf(total_sig) | np.isinf(total_res))
    if over.size:
        p = over[0]
        name = "signal" if np.isinf(total_sig[p]) else "residual"
        raise FloatingPointError(f"row {p} (eps1={cfos[p, 0]:.9g}, eps2={cfos[p, 1]:.9g}): "
                                 f"the {name} power total of {trials} trials "
                                 "overflows the float range")
    var_log = np.full(len(sig), math.nan)
    if trials > 1:
        ms, mr = total_sig[:, None] / trials, total_res[:, None] / trials
        with np.errstate(divide="ignore", invalid="ignore"):  # rows kept below only if lin > 0
            var_log = np.var(sig / ms - res / mr, axis=-1, ddof=1) / trials
    lin, db = snr_db(total_sig, total_res)
    stderr_db = np.where(lin > 0, 10.0 / math.log(10.0) * np.sqrt(var_log), np.nan)
    stderr_db[total_res == 0.0] = 0.0
    return db, stderr_db


# --------------------------------------------------------------------------
# sweeps

def run_sweep(cfg: ExperimentConfig, on_row=None) -> list:
    """Evaluate every sweep point, the closed form once over all of them,
    and return the result table.

    lambda1 is |dSNR/de_1|, the slope against the direct-link offset, and
    lambda2 is |sum_b dSNR/de_b| over the relay branches, the slope when
    every relay offset moves together (|dSNR/de_2| with one relay).  When
    the mode omits a side, the corresponding columns are left empty
    (None), as are the slopes at an infinite SNR.

    The rows are `SweepRow`s, fields in CSV order: a slots dataclass,
    mutable and not hashable, that `dataclasses.replace` copies.  Each
    column is built once as a list and the rows from the columns by one
    `map`.  `on_row` is called with each row once, in order, after the
    whole table is built.
    """
    stats, rho = point_inputs(cfg)
    cfos = stats.cfos
    points = len(cfos)
    # one list per column; `map` reads each through its own iterator, so
    # columns may share a list but never an iterator
    analytical = lambda1 = lambda2 = empirical = stderr = [None] * points
    if cfg.mode != "simulate":
        snr = analytical_snr(stats)
        analytical = snr.snr_db.tolist()
        # each point's relay slopes added left to right in branch order
        lambda1, lambda2 = (np.abs(slope).tolist()
                            for slope in (snr.slopes[:, 0], sum(snr.slopes.T[1:])))
        for p in np.flatnonzero(snr.den == 0.0).tolist():  # the infinite-SNR sentinel
            lambda1[p] = lambda2[p] = None
    if cfg.mode != "analytical":
        empirical, stderr = map(np.ndarray.tolist, _aggregate_trials(
            trial_powers(cfg, rho, stats), cfos))
    # each noise scaling repeats the grid's offsets; repeating the list lets
    # the rows share its float objects rather than hold one copy per row
    grid = len(cfg.sweep_grid)
    direct, relay = (cfos[:grid, b].tolist() * len(cfg.noise_scales) for b in (0, 1))
    trials = cfg.trials if cfg.mode != "analytical" else 0
    rows = list(map(SweepRow, direct, relay, analytical, empirical, stderr, lambda1, lambda2,
                    repeat(trials, points), repeat(cfg.master_seed, points)))
    if on_row is not None:
        for row in rows:
            on_row(row)
    return rows


# Rows formatted by one `%` operation: about 1 MB of fields and text.
_CSV_CHUNK_ROWS = 4096


def _column_conversion(flat: list, column: int, width: int) -> str:
    """The `%` conversion of one column of a chunk, whose fields lie in
    `flat` row after row, `width` per row, chosen from the set of the
    column's types: %.9g if every value is exactly a float, %.0s (empty)
    if every value is None, %s if none is a float or None.  Any other
    column is converted in place by the per-field rule, empty for None,
    format(v, ".9g") for a float, str(v) otherwise, and written by %s."""
    values = flat[column::width]
    types = set(map(type, values))
    if types == {float}:
        return "%.9g"
    if types == {type(None)}:
        return "%.0s"
    if any(t is type(None) or issubclass(t, float) for t in types):
        flat[column::width] = ["" if v is None else format(v, ".9g")
                               if issubclass(type(v), float) else str(v) for v in values]
    return "%s"


def write_csv(rows, path) -> None:
    """Write sweep rows as UTF-8 CSV with the fixed column set: per field
    9 significant digits for a float, empty for None, str() otherwise.

    The rows go out in chunks of up to _CSV_CHUNK_ROWS.  Each chunk's
    fields are joined into one flat list, each column's conversion is
    chosen once from the set of its types, and the chunk's text is one
    `%` operation on one line template repeated per row; the bytes are
    those of formatting every field on its own."""
    width = len(_COLUMNS)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            rows = iter(rows)
            while chunk := list(islice(rows, _CSV_CHUNK_ROWS)):
                flat = list(chain.from_iterable(map(_row_fields, chunk)))
                line = ",".join([_column_conversion(flat, j, width) for j in range(width)])
                fh.write(((line + "\n") * len(chunk)) % tuple(flat))
    except OSError as exc:
        raise RuntimeError(f"cannot write CSV to {path}: {exc}") from exc
