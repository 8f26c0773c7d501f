"""Measure one workload in this fresh process and print one JSON line.

    python3 benchmarks/measure.py --config CFG.json --seconds S --trace 0|1 --out DIR

`run.py` starts this script with BLAS/OpenMP threads pinned to 1 and
`src/` on the path.  It drives afrelay only through `load_config`,
`config_from_dict`, `run_sweep` and `write_csv`.  A repetition ("rep") is
one `run_sweep` plus one `write_csv` of the whole sweep; every rep of a run
must write the same CSV bytes, and the first is checked by `checks.py`.

--trace 0  reps for S seconds after one warm-up rep; reports trials and
           points per second of the sweep with each of its blocks (a 30th
           of its rows, or one point) and the CSV write at their fastest
           rep, each rep's own rate, and the peak resident memory of this
           process and its pool children.
--trace 1  untraced and traced reps (tracer.py) in turn, then one sweep
           under cProfile; reports the per-layer metrics and trace_overhead.
           Spans and profiles of pool worker processes are not collected;
           every workload runs at workers=1, so all its calls are seen.
"""
from __future__ import annotations

import argparse
import cProfile
import json
import math
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import afrelay  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_REPS = 3
BLOCKS = 30
# Functions whose calls and self time are reported, by layer.
REPORTED = {
    "harness": ("load_config", "run_point", "run_sweep", "write_csv"),
    "relay": ("simulate_trial", "simulate_direct", "simulate_relay_branch", "branch_gain",
              "derotate_branch", "decompose_trial"),
    "channel": ("draw_channel", "apply_channel", "apply_cfo", "add_awgn", "frequency_response"),
    "ofdm": ("draw_symbols", "modulate"),
    "transforms": ("dft", "idft"),
    "analysis": ("analytical_snr", "multi_relay_snr", "sensitivities"),
}


class Sweep:
    """One workload's config, reference CSV and correctness state."""

    def __init__(self, raw: dict, out: Path):
        self.raw = raw
        self.csv_path = out / "sweep.csv"
        self.points = len(checks.sweep_inputs(raw))
        simulated = raw.get("mode", "both") in ("simulate", "both")
        self.trials = raw["trials"] * self.points if simulated else 0
        self.reference = None       # CSV bytes of the first rep
        self.failures = {}          # row index -> reason, from the first rep
        self.beyond_c3 = 0          # rows of the first rep beyond the c3 bound
        self.attempted = 0
        self.failed = 0

    def rep(self, cfg) -> tuple:
        """Run one rep; returns (block seconds of run_sweep, write_csv seconds).

        A block is BLOCKS-th of the sweep's rows, timed from the `on_row`
        callbacks; the time after the last row joins the last block.  If the
        rows do not arrive one callback each, the whole sweep is one block.
        """
        marks = []
        start = time.perf_counter()
        rows = afrelay.run_sweep(cfg, on_row=lambda _row: marks.append(time.perf_counter()))
        swept = time.perf_counter()
        afrelay.write_csv(rows, self.csv_path)
        written = time.perf_counter()
        if len(marks) == self.points:
            size = max(1, self.points // BLOCKS)
            edges = [start] + marks[size - 1:-1:size] + [swept]
        else:
            edges = [start, swept]
        blocks = [b - a for a, b in zip(edges, edges[1:])]
        data = self.csv_path.read_bytes()
        if self.reference is None:
            self.reference = data
            self.failures = checks.failed_rows(self.raw, rows, data.decode("utf-8"))
            self.beyond_c3 = checks.beyond_c3(rows)
        self.attempted += self.points
        if data == self.reference:
            self.failed += len(self.failures)
        else:
            self.failed += self.points
            self.failures.setdefault(-1, "CSV differs from the first rep of this run")
        return blocks, written - swept


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_e2e(sweep: Sweep, config_path: Path, seconds: float) -> dict:
    cfg = afrelay.load_config(config_path)
    sweep.rep(cfg)  # warm-up: caches, lazy imports, and the correctness check
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(sweep.rep(cfg))
    # On a shared host the CPU speed drifts by tens of percent over seconds,
    # which only ever slows work down.  So each block of the sweep, and the
    # CSV write, is taken at the fastest of the reps, and the sweep time is
    # their sum: the sweep as it runs when nothing else slows the host.
    shape = len(reps[0][0])
    full = [blocks for blocks, _ in reps if len(blocks) == shape]
    sweep_s = sum(min(column) for column in zip(*full))
    csv_s = min(csv for _, csv in reps)
    metrics = {
        "trials_per_s": sweep.trials / sweep_s,
        "points_per_s": sweep.points / (sweep_s + csv_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    per_rep = {
        "trials_per_s": [sweep.trials / sum(blocks) for blocks, _ in reps],
        "points_per_s": [sweep.points / (sum(blocks) + csv) for blocks, csv in reps],
    }
    return {"metrics": metrics, "reps": per_rep, "blocks": shape,
            "block_s": [blocks for blocks, _ in reps]}


def _pass_summary(tracer: Tracer, sweep: Sweep) -> dict:
    summary = tracer.summary()
    return {
        "spans": {name: {k: v for k, v in entry.items() if k != "durations"}
                  for name, entry in summary.items()},
        "trial_durations": summary.get("relay.simulate_trial", {}).get("durations", []),
        "analysis_us_per_point": 1e6 * tracer.top_level_seconds("analysis") / sweep.points,
        "counters": dict(tracer.counters),
    }


def _profile_counts(sweep: Sweep, cfg) -> dict:
    """Calls cProfile sees in one run_sweep (Python functions and built-ins
    called from Python), and numpy `fft`/`ifft` calls, per trial."""
    profiler = cProfile.Profile()
    profiler.enable()
    afrelay.run_sweep(cfg)
    profiler.disable()
    calls = fft_calls = 0
    for (filename, _, func), (_, total_calls, _, _, _) in pstats.Stats(profiler).stats.items():
        calls += total_calls
        if func in ("fft", "ifft") and "numpy" in filename and "fft" in filename:
            fft_calls += total_calls
    trials = sweep.trials
    return {
        "engine.python_calls_per_trial": calls / trials if trials else 0.0,
        "transforms.fft_calls_per_trial": fft_calls / trials if trials else 0.0,
    }


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def measure_trace(sweep: Sweep, config_path: Path, seconds: float, out: Path) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        cfg = afrelay.load_config(config_path)
        setup = tracer.summary()
    finally:
        tracer.uninstall()
    sweep.rep(cfg)  # warm-up
    # Untraced and traced reps alternate, so both see the same host speed.
    untraced, traced, passes = [], [], []
    deadline = time.perf_counter() + 0.7 * seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        blocks, csv_s = sweep.rep(cfg)
        untraced.append(sum(blocks) + csv_s)
        tracer.reset()
        tracer.install()
        try:
            blocks, csv_s = sweep.rep(cfg)
        finally:
            tracer.uninstall()
        traced.append(sum(blocks) + csv_s)
        passes.append(_pass_summary(tracer, sweep))
    tracer.write_spans(out / "spans.csv")

    metrics = {}
    for layer, functions in REPORTED.items():
        for fn in functions:
            name = f"{layer}.{fn}"
            if name == "harness.load_config":
                entry = setup.get(name, {})
                metrics[f"{name}.calls"] = entry.get("calls", 0)
                metrics[f"{name}.self_s"] = entry.get("self_s", 0.0)
                continue
            entries = [p["spans"].get(name, {}) for p in passes]
            metrics[f"{name}.calls"] = entries[0].get("calls", 0)
            metrics[f"{name}.self_s"] = statistics.median(e.get("self_s", 0.0) for e in entries)
    durations = sorted(d for p in passes for d in p["trial_durations"])
    metrics["relay.simulate_trial.p50_us"] = 1e6 * _percentile(durations, 0.50)
    metrics["relay.simulate_trial.p99_us"] = 1e6 * _percentile(durations, 0.99)
    for name in ("harness.pool_starts", "ofdm.TimeSignal.constructions",
                 "transforms.dense_calls"):
        metrics[name] = passes[0]["counters"][name]
    metrics["harness.pool_start_s"] = statistics.median(
        p["counters"]["harness.pool_start_s"] for p in passes)
    metrics["analysis.us_per_point"] = statistics.median(
        p["analysis_us_per_point"] for p in passes)
    metrics.update(_profile_counts(sweep, cfg))
    metrics["trace_overhead"] = statistics.median(t / u for t, u in zip(traced, untraced))
    return {"metrics": metrics, "traced_reps": len(traced), "untraced_reps": len(untraced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    if not Path(afrelay.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"afrelay was imported from {afrelay.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    raw = json.loads(args.config.read_text(encoding="utf-8"))
    sweep = Sweep(raw, args.out)
    if args.trace:
        result = measure_trace(sweep, args.config, args.seconds, args.out)
    else:
        result = measure_e2e(sweep, args.config, args.seconds)
    result.update(
        attempted=sweep.attempted,
        failed=sweep.failed,
        failures={str(k): v for k, v in sorted(sweep.failures.items())[:5]},
        beyond_c3=sweep.beyond_c3,
        points=sweep.points,
        trials=sweep.trials,
        numpy=np.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
