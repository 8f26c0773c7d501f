"""Correctness gates for the benchmark's sweep outputs.

Every row of a sweep is checked on its own, so one bad point counts as one
failure and never hides the others:

- the offsets, trial count and seed columns echo the inputs;
- the analytical SNR matches a scalar reference evaluation of the closed
  form to within 1e-9 dB, and on single-relay sweeps the chain-rule
  sensitivities match theirs to a relative 1e-6 (the derivative loses
  digits to cancellation near zero offset, so a correct rewrite may differ
  there by more than 1e-9);
- on simulating sweeps the empirical SNR and its standard error are finite
  and |empirical - analytical| <= max(0.3 dB, k * stderr).  Acceptance
  criterion c3 uses k = 3 at one fixed seed.  The benchmark draws a new
  seed on every run, and at k = 3 about 2% of runs of a correct simulator
  fail (4 of 200 seeds of flat_n64 did), so k is the Bonferroni bound that
  keeps that chance at 1e-4 per run: 4.4 for 10 points.  Points beyond the
  c3 bound are still counted and reported, but not as failures;
- the CSV starts with the fixed header and holds exactly one line per row,
  formatted from that row.

The reference is written with the `math` module alone, from the formulas
in the package docstrings at the commit that introduced the benchmark, so
a later rewrite of `afrelay.analysis` is checked value by value against it.
"""
from __future__ import annotations

import math
from statistics import NormalDist

CSV_HEADER = "eps1,eps2,analytical_db,empirical_db,stderr_db,lambda1,lambda2,trials,seed"
DB_TOL = 1e-9
LAMBDA_RTOL = 1e-6
GAP_FLOOR_DB = 0.3
C3_STDERRS = 3.0
RUN_FALSE_ALARM = 1e-4
_SINGULAR_ARG = 1e-9


def dirichlet_gain(eps: float, n: int) -> float:
    e = abs(eps)
    if math.pi * e / n < _SINGULAR_ARG:
        return 1.0
    return math.sin(math.pi * e) / (n * math.sin(math.pi * e / n))


def dirichlet_gain_derivative(eps: float, n: int) -> float:
    if abs(math.pi * eps / n) < _SINGULAR_ARG:
        return -(math.pi ** 2) * eps * (1.0 - 1.0 / n ** 2) / 3.0
    s, c = math.sin(math.pi * eps), math.cos(math.pi * eps)
    sn, cn = math.sin(math.pi * eps / n), math.cos(math.pi * eps / n)
    return math.pi * (n * c * sn - s * cn) / (n * sn) ** 2


def upa_gain(gain: dict, hop1_power: float, relay_noise_var: float) -> float:
    """Relay gain under uniform power allocation, the mode every workload uses."""
    if gain["mode"] != "upa":
        raise ValueError(f"the reference covers gain mode 'upa' only, not {gain['mode']!r}")
    return math.sqrt(1.0 / (hop1_power + 2.0 * relay_noise_var / gain["total_power"]))


def sweep_inputs(raw: dict) -> list:
    """(eps1, relay offsets, noise scale) per row, in output order."""
    axis, grid = raw["sweep"]["axis"], raw["sweep"]["grid"]
    if axis not in ("eps2", "both_equal"):
        raise ValueError(f"the reference covers axes 'eps2' and 'both_equal' only, not {axis!r}")
    m = len(raw["relays"])
    return [
        (g if axis == "both_equal" else raw["direct"]["cfo"], (g,) * m, scale)
        for scale in raw["noise_scales"]
        for g in grid
    ]


def reference_point(raw: dict, eps1: float, relay_cfos: tuple, scale: float):
    """Closed-form (snr_db, lambda1, lambda2) at one point.

    The lambdas are None unless the topology has exactly one relay.
    """
    n = raw["ofdm"]["n_subcarriers"]
    sx = raw["ofdm"].get("symbol_power", 1.0)
    direct = raw["direct"]
    a_direct = direct["profile"]["power"] * sx
    f0 = dirichlet_gain(eps1, n)
    num = f0 ** 2 * a_direct
    den = (1.0 - f0 ** 2) * a_direct + direct["noise_var"] * scale
    weights = []
    for relay, eps in zip(raw["relays"], relay_cfos):
        hop1 = relay["hop1_profile"]["power"]
        relay_nv = relay["relay_noise_var"] * scale
        rho = upa_gain(relay["gain"], hop1, relay_nv)
        weight = rho ** 2 * hop1 * relay["hop2_profile"]["power"] * sx
        fb = dirichlet_gain(eps, n)
        num += fb ** 2 * weight
        den += (1.0 - fb ** 2) * weight + relay["dest_noise_var"] * scale + rho ** 2 * relay_nv
        weights.append(weight)
    if den == 0.0:
        return math.inf, None, None
    lin = num / den
    snr_db = 10.0 * math.log10(lin) if lin > 0 else -math.inf
    if len(weights) != 1:
        return snr_db, None, None

    def slope(eps: float, weight: float) -> float:
        f, d = dirichlet_gain(eps, n), abs(dirichlet_gain_derivative(eps, n))
        return 2.0 * f * d * weight * (num + den) / den ** 2

    return snr_db, slope(eps1, a_direct), slope(relay_cfos[0], weights[0])


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _close_rel(value, ref: float) -> bool:
    return value is not None and abs(value - ref) <= LAMBDA_RTOL * abs(ref) + 1e-300


def gap_stderrs(points: int) -> float:
    """Stderr multiple at which a correct run of `points` simulated points
    fails with probability RUN_FALSE_ALARM (two-sided, Bonferroni)."""
    return max(C3_STDERRS, NormalDist().inv_cdf(1.0 - RUN_FALSE_ALARM / (2 * points)))


def gap_bound(stderr_db: float, stderrs: float) -> float:
    return max(GAP_FLOOR_DB, stderrs * stderr_db)


def check_row(raw: dict, inputs: tuple, row, stderrs: float = C3_STDERRS) -> str | None:
    """Reason the row fails the gate, or None when it passes."""
    eps1, relay_cfos, scale = inputs
    mode = raw.get("mode", "both")
    simulated = mode in ("simulate", "both")
    if row.eps1 != eps1 or row.eps2 != relay_cfos[0]:
        return f"offsets ({row.eps1}, {row.eps2}) != inputs ({eps1}, {relay_cfos[0]})"
    if row.seed != raw["master_seed"]:
        return f"seed {row.seed} != {raw['master_seed']}"
    if row.trials != (raw["trials"] if simulated else 0):
        return f"trials column {row.trials}"
    ref_db, ref_l1, ref_l2 = reference_point(raw, eps1, relay_cfos, scale)
    if mode != "simulate":
        if not _finite(row.analytical_db):
            return f"analytical_db {row.analytical_db} is not finite"
        if abs(row.analytical_db - ref_db) > DB_TOL:
            return f"analytical_db {row.analytical_db!r} != reference {ref_db!r}"
        if ref_l1 is not None and not (
            _close_rel(row.lambda1, ref_l1) and _close_rel(row.lambda2, ref_l2)
        ):
            return (f"sensitivities ({row.lambda1!r}, {row.lambda2!r}) != "
                    f"reference ({ref_l1!r}, {ref_l2!r})")
    if simulated:
        if not (_finite(row.empirical_db) and _finite(row.stderr_db)):
            return f"empirical {row.empirical_db} +/- {row.stderr_db} is not finite"
        gap = abs(row.empirical_db - ref_db)
        bound = gap_bound(row.stderr_db, stderrs)
        if gap > bound:
            return f"|empirical - analytical| = {gap:.3f} dB > bound {bound:.3f} dB"
    return None


def failed_rows(raw: dict, rows, csv_text: str) -> dict:
    """Map of failing row index to its reason; a missing row counts as failed."""
    expected = sweep_inputs(raw)
    stderrs = gap_stderrs(len(expected))
    failures = {}
    lines = csv_text.split("\n")
    if lines[0] != CSV_HEADER:
        return {i: f"CSV header is {lines[0]!r}" for i in range(len(expected))}
    if lines[-1] == "":
        lines.pop()
    for i, inputs in enumerate(expected):
        if i >= len(rows):
            failures[i] = "row missing"
            continue
        row = rows[i]
        reason = check_row(raw, inputs, row, stderrs)
        if reason is None:
            fields = (row.eps1, row.eps2, row.analytical_db, row.empirical_db, row.stderr_db,
                      row.lambda1, row.lambda2, row.trials, row.seed)
            line = ",".join(_format_field(v) for v in fields)
            if i + 1 >= len(lines) or lines[i + 1] != line:
                reason = "CSV line does not match the row"
        if reason is not None:
            failures[i] = reason
    if len(rows) != len(expected) or len(lines) != len(expected) + 1:
        for i in range(len(expected)):
            failures.setdefault(i, f"{len(rows)} rows and {len(lines) - 1} CSV lines, "
                                   f"expected {len(expected)}")
    return failures


def beyond_c3(rows) -> int:
    """Simulated rows whose gap exceeds the c3 bound max(0.3 dB, 3 stderr)."""
    return sum(
        1 for r in rows
        if _finite(r.empirical_db) and _finite(r.analytical_db) and _finite(r.stderr_db)
        and abs(r.empirical_db - r.analytical_db) > gap_bound(r.stderr_db, C3_STDERRS)
    )
