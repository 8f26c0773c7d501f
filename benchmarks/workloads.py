"""Benchmark workloads: experiment configs built from a workload name and a seed.

Standard library only, so run.py can write a config without importing
numpy.  The seed is the config's `master_seed`; any other randomized input
(the analytic surface's offsets and noise scales) is drawn from it as well,
so one seed always gives the same inputs.
"""
from __future__ import annotations

import copy
import random

# Frozen copy of the `fig3_flat` preset, so a later edit of the shipped preset
# cannot silently change what the benchmark measures.
FIG3_FLAT = {
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
}

# Trials per point of the simulating workloads, and the surface size.  Each
# is sized so that one sweep takes about a second on a 2-core Xeon.
FLAT_TRIALS = 400
WIDE_TRIALS = 100
SURFACE_OFFSETS = 300
SURFACE_SCALES = 100


def _exponential(power: float) -> dict:
    return {"kind": "exponential", "n_taps": 16, "power": power, "decay": 4.0}


def flat_n64(seed: int, tiny: bool) -> dict:
    raw = copy.deepcopy(FIG3_FLAT)
    raw["trials"] = 4 if tiny else FLAT_TRIALS
    raw["master_seed"] = seed
    raw["workers"] = 1
    return raw


def wide4_n1024(seed: int, tiny: bool) -> dict:
    relay = {
        "hop1_profile": _exponential(1.0),
        "hop2_profile": _exponential(4.0),
        "cfo": 0.0,
        "relay_noise_var": 0.1,
        "dest_noise_var": 0.1,
        "gain": {"mode": "upa", "total_power": 2.0},
    }
    return {
        "ofdm": {"n_subcarriers": 1024, "cp_len": 64, "constellation": "qpsk",
                 "symbol_power": 1.0},
        "direct": {"profile": _exponential(1.0), "cfo": 0.0, "noise_var": 0.1},
        "relays": [copy.deepcopy(relay) for _ in range(4)],
        "sweep": {"axis": "eps2", "grid": [0.0, 0.2, 0.4]},
        "noise_scales": [1.0, 0.1],
        "trials": 4 if tiny else WIDE_TRIALS,
        "master_seed": seed,
        "mode": "both",
        "workers": 1,
    }


def analytic_surface(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    n_offsets, n_scales = (7, 3) if tiny else (SURFACE_OFFSETS, SURFACE_SCALES)
    # Offsets come from the 1e-3 lattice in [-0.45, 0.45], so none lies within
    # 1e-3 of zero except zero itself, where the closed-form sensitivities
    # would lose digits to cancellation.
    grid = sorted(k / 1000 for k in rng.sample(range(-450, 451), n_offsets))
    # A geometric progression spanning three decades from a seeded start.
    start = rng.uniform(-2.5, -1.5)
    scales = [10.0 ** (start + 3.0 * i / (n_scales - 1)) for i in range(n_scales)]
    raw = copy.deepcopy(FIG3_FLAT)
    raw["sweep"] = {"axis": "both_equal", "grid": grid}
    raw["noise_scales"] = scales
    raw["trials"] = 1
    raw["master_seed"] = seed
    raw["mode"] = "analytical"
    raw["workers"] = 1
    return raw


BUILDERS = {
    "flat_n64": flat_n64,
    "wide4_n1024": wide4_n1024,
    "analytic_surface": analytic_surface,
}


def config_dict(name: str, seed: int, tiny: bool = False) -> dict:
    """The experiment config of workload `name` at `seed`, as plain JSON data."""
    return BUILDERS[name](seed, tiny)
