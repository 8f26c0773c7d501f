"""afrelay benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run from the repository root; afrelay is imported from `src/`.  For each
workload it writes the experiment config built from the seed,
times `setup_s` in fresh interpreters (with --trace 0), then measures the
workload in one fresh process (`measure.py`) with BLAS/OpenMP threads
pinned to 1.  It prints every metric by name with its unit, the machine it
ran on, and as the last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
Scratch files (configs, CSVs, spans, full results) go to `.bench_out/`.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 160.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Imports the package and loads a validated config, then prints the
# monotonic clock, which run.py compares with its own from before the
# interpreter was started.
SETUP_PROBE = "import sys, time, afrelay; afrelay.load_config(sys.argv[1]); print(time.monotonic())"

# Metric names and units, and each workload's reason, come from here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version()}


def measure_setup(config_path: Path, env: dict) -> list:
    """Seconds from interpreter start to a validated config, per fresh run.

    The first run only warms the file cache and is dropped."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config_path)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return times[1:]


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    out = OUT / f"{name}-seed{seed}-trace{trace}"
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(workloads.config_dict(name, seed, tiny)), encoding="utf-8")
    env = child_env()
    setup = None if trace else measure_setup(config_path, env)
    done = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--config", str(config_path),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name}: measurement process exited with {done.returncode}:\n"
                           f"{done.stderr[-4000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_runs_s"] = setup
    result.update(workload=name, seed=seed, trace=trace, machine=machine())
    (out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict) -> dict:
    """Print one workload's metrics; return the metrics of the contract set."""
    name, trace = result["workload"], result["trace"]
    failed, attempted = result["failed"], result["attempted"]
    env = result["machine"]
    print(f"== {name}  seed {result['seed']}  {result['points']} points, "
          f"{result['trials']} trials per sweep  ({WHY[name]})")
    print(f"   machine: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={result['numpy']}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer" if trace else "end_to_end"]}
    if not trace:
        reps = result["reps"]
        for key, unit in (("trials_per_s", "trials/s"), ("points_per_s", "points/s")):
            if key == "trials_per_s" and result["trials"] == 0:
                print(f"   {key:32s} {'n/a':>14s} (no Monte-Carlo trials in this workload)")
                continue
            values = sorted(reps[key])
            print(f"   {key:32s} {result['metrics'][key]:14.6g} {unit}  ({result['blocks']} "
                  f"blocks each at its fastest of {len(values)} reps; whole reps: fastest "
                  f"{values[-1]:.6g}, median {statistics.median(values):.6g}, "
                  f"slowest {values[0]:.6g})")
        print(f"   {'setup_s':32s} {result['metrics']['setup_s']:14.6g} s  (median of "
              f"{len(result['setup_runs_s'])} fresh interpreters)")
        print(f"   {'peak_rss_mb':32s} {result['metrics']['peak_rss_mb']:14.6g} MB")
    else:
        for key, entry in metrics.items():
            print(f"   {key:32s} {entry['value']:14.6g} {entry['unit']}")
    print(f"   {'error_rate':32s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} points failed)")
    if result["trials"]:
        print(f"   {result['beyond_c3']} of {result['points']} points beyond c3's "
              f"max(0.3 dB, 3 stderr) (not failures: a new seed every run)")
    for index, reason in result["failures"].items():
        print(f"   failed row {index}: {reason}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: a few trials and points per sweep")
    args = parser.parse_args(argv)
    if not (SRC / "afrelay" / "__init__.py").is_file():
        print(f"no afrelay sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("--seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2

    names = list(WHY) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"== {name}: {exc}", file=sys.stderr)
            if len(names) == 1:
                return 1
            # Every point of a workload whose process failed counts as failed.
            raw = workloads.config_dict(name, args.seed, args.tiny)
            points = len(raw["sweep"]["grid"]) * len(raw["noise_scales"])
            correct, attempted, failed = False, attempted + points, failed + points
            continue
        shown = report(result)
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{key}": entry for key, entry in shown.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
