"""Experiment configuration, seeded Monte-Carlo sweeps, and CSV output.

A config describes one topology (OFDM numerology, per-link power delay
profiles, noise variances, relay gain rule) plus a CFO sweep: which offset
axis moves, the grid it moves over, and the noise scalings at which the
sweep repeats.  `run_sweep` evaluates the closed-form SNR and/or the
Monte-Carlo estimate at every point and returns rows ready for `write_csv`.
`point_inputs` is the one builder that turns a config and P sweep points
into both sides' inputs: the closed form's `LinkStats` with a leading
point axis, evaluated once per sweep, and, only when the mode simulates,
the direct and relay paths with one offset, gain and noise variance per
point, simulated once per sweep.

Noise convention: configured noise variances are per received frequency
bin, the same quantities the closed-form SNR consumes.  The simulator
injects time-domain noise at variance var/N per sample, which the
un-normalized transform maps back to var per bin.

Reproducibility: trials run in blocks of B = max(1, 8192 // (N + cp_len))
(102 at N=64, 7 at N=1024), a size fixed by the numerology alone.  Block b
covers trials [bB, (b+1)B), the last one possibly short, and draws from
numpy's default_rng([master_seed, b]) in the order `simulate_block`
documents.  The stream has no point index: every point of a sweep uses the
same block streams (common random numbers), so the points' empirical
columns are correlated.  Each block is drawn once per sweep and simulated
at every point in one `simulate_block` call.  A pool task is a contiguous
range of blocks covering every point; each point's per-trial powers are
reduced in trial order, so the result is bitwise independent of `workers`.
"""
from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .analysis import LinkStats, analytical_snr
from .channel import (
    PowerDelayProfile,
    exponential_profile,
    flat_profile,
    require_isi_free,
    uniform_profile,
)
from .ofdm import OfdmParams
from .relay import DirectPath, RelayGainConfig, RelayPath, gain_factor, simulate_block
from .transforms import require_fractional_cfo

SWEEP_AXES = ("eps1", "eps2", "both_equal")
MODES = ("analytical", "simulate", "both")

CSV_HEADER = "eps1,eps2,analytical_db,empirical_db,stderr_db,lambda1,lambda2,trials,seed"

# Target samples per (trials, N + cp_len) array of one random-stream block.
BLOCK_SAMPLES = 8192


class ConfigError(Exception):
    """Any problem with an experiment configuration."""


class ConfigParseError(ConfigError):
    """The config source could not be read or parsed."""


class ConfigKeyError(ConfigError):
    """The config contains a key that is not part of the schema."""


class ConfigValueError(ConfigError):
    """A config value violates an invariant."""


@dataclass(frozen=True)
class RelaySpec:
    """Config-level description of one relay branch."""

    hop1_profile: PowerDelayProfile
    hop2_profile: PowerDelayProfile
    cfo: float
    gain: RelayGainConfig
    relay_noise_var: float
    dest_noise_var: float


@dataclass(frozen=True)
class ExperimentConfig:
    ofdm: OfdmParams
    direct_profile: PowerDelayProfile
    direct_cfo: float
    direct_noise_var: float
    relays: tuple
    sweep_axis: str
    sweep_grid: tuple
    noise_scales: tuple
    trials: int
    master_seed: int
    mode: str
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ConfigValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigValueError("master_seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise ConfigValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class PointAssignment:
    """Concrete offsets and noise scaling for one sweep point."""

    direct_cfo: float
    relay_cfos: tuple
    noise_scale: float = 1.0


@dataclass(frozen=True)
class EmpiricalSnr:
    """Monte-Carlo SNR estimate with a delta-method standard error in dB."""

    snr_linear: float
    snr_db: float
    stderr_db: float
    trials: int
    master_seed: int


@dataclass(frozen=True)
class SweepRow:
    eps1: float
    eps2: float
    analytical_db: float | None
    empirical_db: float | None
    stderr_db: float | None
    lambda1: float | None
    lambda2: float | None
    trials: int
    seed: int


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
        raise ConfigValueError(f"{context} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigKeyError(
            f"unknown key(s) {unknown} in {context}; allowed keys: {sorted(allowed)}"
        )


def _require(raw: dict, key: str, context: str):
    if key not in raw:
        raise ConfigValueError(f"missing required key {key!r} in {context}")
    return raw[key]


def _as_number(value, key: str, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigValueError(f"{context}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # JSON admits NaN and Infinity
        raise ConfigValueError(f"{context}.{key} must be finite, got {value!r}")
    return number


def _as_int(value, key: str, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigValueError(f"{context}.{key} must be an integer, got {value!r}")
    return value


# Keys of each profile kind; `power` is the profile's total power.
PROFILE_KEYS = {
    "flat": {"kind", "power"},
    "uniform": {"kind", "n_taps", "power"},
    "exponential": {"kind", "n_taps", "power", "decay"},
}


def _parse_profile(raw, context: str, cp_len: int) -> PowerDelayProfile:
    if not isinstance(raw, dict):
        raise ConfigValueError(f"{context} must be an object, got {raw!r}")
    kind = _require(raw, "kind", context)
    if kind not in list(PROFILE_KEYS):  # a list compares unhashable values too
        raise ConfigValueError(f"{context}.kind must be one of {list(PROFILE_KEYS)}, got {kind!r}")
    _check_keys(raw, PROFILE_KEYS[kind], context)
    power = _as_number(_require(raw, "power", context), "power", context)
    # every link is a closed-form branch, whose coherent power must be > 0
    if power <= 0:
        raise ConfigValueError(f"{context}: total power must be > 0, got {power!r}")
    try:
        if kind == "flat":
            return flat_profile(power)
        n_taps = _as_int(_require(raw, "n_taps", context), "n_taps", context)
        # no hop may outgrow the prefix; checked before n_taps sizes an array
        require_isi_free(cp_len, [n_taps], "n_taps")
        if kind == "uniform":
            return uniform_profile(n_taps, power)
        return exponential_profile(
            n_taps, power, _as_number(raw.get("decay", 1.0), "decay", context)
        )
    except ValueError as exc:
        raise ConfigValueError(f"{context}: {exc}") from exc


def _parse_gain(raw, context: str) -> RelayGainConfig:
    allowed = {"mode", "rho", "total_power", "source_power", "relay_power"}
    _check_keys(raw, allowed, context)
    kwargs = {}
    for key in allowed:
        if key in raw:
            kwargs[key] = raw[key] if key == "mode" else _as_number(raw[key], key, context)
    try:
        return RelayGainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigValueError(f"{context}: {exc}") from exc


def _parse_cfo(value, key: str, context: str) -> float:
    eps = _as_number(value, key, context)
    try:
        return require_fractional_cfo(eps, name=f"{context}.{key}")
    except ValueError as exc:
        raise ConfigValueError(str(exc)) from exc


def _parse_relay(raw, context: str, cp_len: int) -> RelaySpec:
    allowed = {"hop1_profile", "hop2_profile", "cfo", "gain", "relay_noise_var", "dest_noise_var"}
    _check_keys(raw, allowed, context)
    relay_nv = _as_number(_require(raw, "relay_noise_var", context), "relay_noise_var", context)
    dest_nv = _as_number(_require(raw, "dest_noise_var", context), "dest_noise_var", context)
    if relay_nv < 0 or dest_nv < 0:
        raise ConfigValueError(f"{context}: noise variances must be >= 0")
    return RelaySpec(
        hop1_profile=_parse_profile(
            _require(raw, "hop1_profile", context), f"{context}.hop1_profile", cp_len),
        hop2_profile=_parse_profile(
            _require(raw, "hop2_profile", context), f"{context}.hop2_profile", cp_len),
        cfo=_parse_cfo(raw.get("cfo", 0.0), "cfo", context),
        gain=_parse_gain(_require(raw, "gain", context), f"{context}.gain"),
        relay_noise_var=relay_nv,
        dest_noise_var=dest_nv,
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
        raise ConfigValueError(f"ofdm: {exc}") from exc

    direct_raw = _require(raw, "direct", "config")
    _check_keys(direct_raw, {"profile", "cfo", "noise_var"}, "direct")
    direct_profile = _parse_profile(
        _require(direct_raw, "profile", "direct"), "direct.profile", ofdm.cp_len)
    direct_cfo = _parse_cfo(direct_raw.get("cfo", 0.0), "cfo", "direct")
    direct_noise = _as_number(_require(direct_raw, "noise_var", "direct"), "noise_var", "direct")
    if direct_noise < 0:
        raise ConfigValueError("direct.noise_var must be >= 0")

    relays_raw = _require(raw, "relays", "config")
    if not isinstance(relays_raw, list) or not relays_raw:
        raise ConfigValueError("relays must be a non-empty list of relay branches")
    relays = tuple(_parse_relay(r, f"relays[{i}]", ofdm.cp_len) for i, r in enumerate(relays_raw))

    sweep_raw = _require(raw, "sweep", "config")
    _check_keys(sweep_raw, {"axis", "grid"}, "sweep")
    axis = _require(sweep_raw, "axis", "sweep")
    if axis not in SWEEP_AXES:
        raise ConfigValueError(f"sweep.axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid_raw = _require(sweep_raw, "grid", "sweep")
    if not isinstance(grid_raw, list) or not grid_raw:
        raise ConfigValueError("sweep.grid must be a non-empty list of offsets")
    grid = tuple(_parse_cfo(g, f"grid[{i}]", "sweep") for i, g in enumerate(grid_raw))

    scales_raw = raw.get("noise_scales", [1.0])
    if not isinstance(scales_raw, list) or not scales_raw:
        raise ConfigValueError("noise_scales must be a non-empty list of positive factors")
    scales = tuple(_as_number(s, f"noise_scales[{i}]", "config") for i, s in enumerate(scales_raw))
    if any(s <= 0 for s in scales):
        raise ConfigValueError("noise_scales must be > 0")

    # the engine's inter-symbol interference rule, checked at load time
    links = [("the direct channel", [direct_profile.n_taps])] + [
        (f"relays[{i}]", [spec.hop1_profile.n_taps, spec.hop2_profile.n_taps])
        for i, spec in enumerate(relays)
    ]
    for link, hop_taps in links:
        try:
            require_isi_free(ofdm.cp_len, hop_taps, link)
        except ValueError as exc:
            raise ConfigValueError(str(exc)) from exc

    return ExperimentConfig(
        ofdm=ofdm,
        direct_profile=direct_profile,
        direct_cfo=direct_cfo,
        direct_noise_var=direct_noise,
        relays=relays,
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
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def config_digest(cfg: ExperimentConfig) -> str:
    """Short stable hash of the experiment (excludes execution details)."""
    payload = {
        "ofdm": [cfg.ofdm.n_subcarriers, cfg.ofdm.cp_len, cfg.ofdm.constellation,
                 cfg.ofdm.symbol_power],
        "direct": [cfg.direct_profile.tap_powers.tolist(), cfg.direct_cfo, cfg.direct_noise_var],
        "relays": [
            [
                s.hop1_profile.tap_powers.tolist(),
                s.hop2_profile.tap_powers.tolist(),
                s.cfo,
                [s.gain.mode, s.gain.rho, s.gain.total_power, s.gain.source_power,
                 s.gain.relay_power],
                s.relay_noise_var,
                s.dest_noise_var,
            ]
            for s in cfg.relays
        ],
        "sweep": [cfg.sweep_axis, list(cfg.sweep_grid)],
        "noise_scales": list(cfg.noise_scales),
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
        "mode": cfg.mode,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# --------------------------------------------------------------------------
# point evaluation

def point_inputs(cfg: ExperimentConfig, cfos: np.ndarray, scales: np.ndarray):
    """Closed-form statistics of P points, given as `sweep_offsets` returns
    them, and their simulator paths when the mode simulates.

    Returns (LinkStats with a leading point axis, (DirectPath, [RelayPath])
    whose offsets, gains and noise variances hold one value per point, or
    None).  Each relay gain is resolved once per noise scaling; LinkStats
    carries per-bin noise, the paths per-sample noise (var * scale / N).
    """
    n, sx = cfg.ofdm.n_subcarriers, cfg.ofdm.symbol_power
    levels, level_of = np.unique(scales, return_inverse=True)
    levels = levels.tolist()
    gains, branches = [], []  # per noise scaling: relay gains, (power, noise) per branch
    for scale in levels:
        rhos = [gain_factor(s.gain, s.hop1_profile.total_power, s.relay_noise_var * scale)
                for s in cfg.relays]
        gains.append(rhos)
        branches.append([(cfg.direct_profile.total_power * sx, cfg.direct_noise_var * scale)] + [
            (rho ** 2 * s.hop1_profile.total_power * s.hop2_profile.total_power * sx,
             s.dest_noise_var * scale + rho ** 2 * (s.relay_noise_var * scale))
            for s, rho in zip(cfg.relays, rhos)
        ])
    branches = np.array(branches)[level_of]
    stats = LinkStats(n, branches[..., 0], cfos, branches[..., 1])
    if cfg.mode == "analytical":
        return stats, None
    rhos = np.array(gains)[level_of]
    direct = DirectPath(cfg.direct_profile, cfos[:, 0], cfg.direct_noise_var * scales / n)
    relays = [RelayPath(s.hop1_profile, s.hop2_profile, cfos[:, i + 1], rhos[:, i],
                        s.relay_noise_var * scales / n, s.dest_noise_var * scales / n)
              for i, s in enumerate(cfg.relays)]
    return stats, (direct, relays)


def block_size(params: OfdmParams) -> int:
    """Trials per random-stream block: about BLOCK_SAMPLES samples per row
    array, fixed by the numerology alone."""
    return max(1, BLOCK_SAMPLES // (params.n_subcarriers + params.cp_len))


def _simulate_blocks(task):
    """Per-trial (signal, residual) powers, each (P, trials), of blocks
    [first, stop) at every point."""
    cfg, direct, relays, first, stop = task
    size = block_size(cfg.ofdm)
    sig, res = [], []
    for b in range(first, stop):
        trials = min(size, cfg.trials - b * size)
        rng = np.random.default_rng([cfg.master_seed, b])
        outcome = simulate_block(cfg.ofdm, direct, relays, rng, trials)
        sig.append(outcome.signal_power)
        res.append(outcome.residual_power)
    return np.concatenate(sig, axis=-1), np.concatenate(res, axis=-1)


def _empirical_results(cfg: ExperimentConfig, paths):
    """The EmpiricalSnr of each point of the simulator paths, in order, or
    None without end when paths is None.

    The blocks split into at most `workers` contiguous ranges, each
    covering every point.  With workers > 1 one process pool runs the
    ranges; each point's per-trial powers are reassembled in trial order,
    so the result does not depend on workers.
    """
    if paths is None:
        return repeat(None)
    direct, relays = paths
    blocks = -(-cfg.trials // block_size(cfg.ofdm))
    parts = min(cfg.workers, blocks)
    edges = [i * blocks // parts for i in range(parts + 1)]
    tasks = [(cfg, direct, relays, a, b) for a, b in zip(edges, edges[1:])]
    pool = None
    if parts > 1:
        pool = ProcessPoolExecutor(max_workers=parts,
                                   mp_context=multiprocessing.get_context("spawn"))
    try:
        results = list((pool.map if pool else map)(_simulate_blocks, tasks))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    sig, res = (np.concatenate(part, axis=-1) for part in zip(*results))
    return [_aggregate_trials(point_sig, point_res, cfg) for point_sig, point_res in zip(sig, res)]


def _aggregate_trials(sig: np.ndarray, res: np.ndarray, cfg: ExperimentConfig) -> EmpiricalSnr:
    """Ratio-of-sums estimate with a delta-method standard error in dB.

    The ratio of summed powers estimates the ratio of expectations; the
    per-trial (signal, residual) pairs give its log-domain variance.
    """
    trials = sig.size
    total_sig = float(np.sum(sig))
    total_res = float(np.sum(res))
    # A residual below ~1e-24 of the signal is rounding dust from the
    # transform round trip, not a real impairment (the weakest modelled
    # impairments sit many orders above); report the infinity sentinel.
    if total_res <= total_sig * 1e-24:
        return EmpiricalSnr(math.inf, math.inf, 0.0, trials, cfg.master_seed)
    lin = total_sig / total_res
    db = 10.0 * math.log10(lin) if lin > 0 else -math.inf
    if trials > 1 and lin > 0:
        ms, mr = total_sig / trials, total_res / trials
        vs = float(np.var(sig, ddof=1)) / trials
        vr = float(np.var(res, ddof=1)) / trials
        cov = float(np.cov(sig, res, ddof=1)[0, 1]) / trials
        var_log = vs / ms ** 2 + vr / mr ** 2 - 2.0 * cov / (ms * mr)
        stderr_db = 10.0 / math.log(10.0) * math.sqrt(max(var_log, 0.0))
    else:
        stderr_db = math.nan
    return EmpiricalSnr(lin, db, stderr_db, trials, cfg.master_seed)


def run_point(cfg: ExperimentConfig, point: PointAssignment):
    """Evaluate one sweep point.

    Returns (EmpiricalSnr or None, SnrBreakdown); the empirical half runs
    only when the config mode asks for simulation.
    """
    cfos = np.array([(point.direct_cfo, *point.relay_cfos)])
    stats, paths = point_inputs(cfg, cfos, np.array([point.noise_scale]))
    return next(iter(_empirical_results(cfg, paths))), analytical_snr(stats.point(0))


# --------------------------------------------------------------------------
# sweeps

def sweep_offsets(cfg: ExperimentConfig):
    """Offsets, a (P, M + 1) array with the direct link first, and noise
    scalings of the P sweep points in output order: noise scales outer,
    grid inner."""
    grid = np.array(cfg.sweep_grid)[:, None]
    configured = [cfg.direct_cfo, *(s.cfo for s in cfg.relays)]
    moved = [cfg.sweep_axis != "eps2"] + [cfg.sweep_axis != "eps1"] * len(cfg.relays)
    cfos = np.where(moved, grid, configured)
    return np.tile(cfos, (len(cfg.noise_scales), 1)), np.repeat(cfg.noise_scales, grid.size)


def run_sweep(cfg: ExperimentConfig, on_row=None) -> list:
    """Evaluate every sweep point, the closed form once over all of them,
    and return the result table.

    lambda1 is |dSNR/de_1|, the slope against the direct-link offset, and
    lambda2 is |sum_b dSNR/de_b| over the relay branches, the slope when
    every relay offset moves together (|dSNR/de_2| with one relay).  When
    the mode omits a side, the corresponding columns are left empty
    (None), as are the slopes at an infinite SNR.  `on_row` is called with
    each finished SweepRow in order, for progress reporting; when the mode
    simulates, every point finishes with the last trial block, so all rows
    arrive after it.
    """
    cfos, scales = sweep_offsets(cfg)
    stats, paths = point_inputs(cfg, cfos, scales)
    analytical = lambda1 = lambda2 = repeat(None)
    if cfg.mode != "simulate":
        snr = analytical_snr(stats)
        analytical = snr.snr_db.tolist()
        # relay slopes added in branch order, as `sum` does at one point
        lambda1, lambda2 = (np.where(snr.den == 0.0, None, np.abs(slope)).tolist()
                            for slope in (snr.slopes[:, 0], sum(snr.slopes.T[1:])))
    # each noise scaling repeats the grid's offsets; repeating the list lets
    # the rows share its float objects rather than hold one copy per row
    grid = len(cfg.sweep_grid)
    direct, relay = (cfos[:grid, b].tolist() * len(cfg.noise_scales) for b in (0, 1))
    rows = []
    for eps1, eps2, db, l1, l2, empirical in zip(
        direct, relay, analytical, lambda1, lambda2, _empirical_results(cfg, paths)
    ):
        row = SweepRow(
            eps1=eps1,
            eps2=eps2,
            analytical_db=db,
            empirical_db=empirical.snr_db if empirical is not None else None,
            stderr_db=empirical.stderr_db if empirical is not None else None,
            lambda1=l1,
            lambda2=l2,
            trials=cfg.trials if empirical is not None else 0,
            seed=cfg.master_seed,
        )
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows


_row_fields = attrgetter(*CSV_HEADER.split(","))


def _line_format(types: tuple) -> str:
    """The format string of a CSV line whose fields have these types:
    9 significant digits for a float, empty for None, str() otherwise."""
    fields = ("" if t is type(None) else f"{{{i}:.9g}}" if issubclass(t, float) else f"{{{i}}}"
              for i, t in enumerate(types))
    return ",".join(fields) + "\n"


def write_csv(rows, path) -> None:
    """Write sweep rows as UTF-8 CSV with the fixed column set, one
    format call per row."""
    formats = {}  # line format per tuple of field types
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for fields in map(_row_fields, rows):
                types = tuple(map(type, fields))
                if types not in formats:
                    formats[types] = _line_format(types)
                fh.write(formats[types].format(*fields))
    except OSError as exc:
        raise RuntimeError(f"cannot write CSV to {path}: {exc}") from exc


def with_overrides(cfg: ExperimentConfig, *, mode=None, trials=None,
                   master_seed=None, workers=None) -> ExperimentConfig:
    """Copy a config with the CLI-style overrides that are not None applied."""
    updates = dict(mode=mode, trials=trials, master_seed=master_seed, workers=workers)
    return replace(cfg, **{k: v for k, v in updates.items() if v is not None})
