"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

    python -m pytest benchmarks/test_smoke.py -q

Checks that each run exits 0, that its last line is the JSON result with
every metric BENCHMARK.json names, and that the call counts of the traced
run repeat exactly.  A few trials per point are too few for the Monte-Carlo
gate, so only the deterministic analytic surface must pass every check here.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.BUILDERS)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported(workload, trace):
    result = _run(workload, seed=11, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if workload == "analytic_surface":
        assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0


@pytest.mark.parametrize("workload", ["flat_n64", "wide4_n1024"])
def test_call_counts_repeat(workload):
    counts = ("engine.python_calls_per_trial", "transforms.fft_calls_per_trial")
    first, second = (_run(workload, seed, trace=1)["metrics"] for seed in (5, 6))
    for name in counts:
        assert first[name]["value"] == second[name]["value"] > 0


def test_reference_matches_package():
    sys.path.insert(0, str(ROOT / "src"))
    import afrelay

    raw = workloads.config_dict("analytic_surface", 3, tiny=True)
    rows = afrelay.run_sweep(afrelay.config_from_dict(raw))
    for inputs, row in zip(checks.sweep_inputs(raw), rows):
        assert checks.check_row(raw, inputs, row) is None


def test_gate_rejects_wrong_values():
    sys.path.insert(0, str(ROOT / "src"))
    import dataclasses

    import afrelay

    raw = workloads.config_dict("analytic_surface", 3, tiny=True)
    row = afrelay.run_sweep(afrelay.config_from_dict(raw))[0]
    inputs = checks.sweep_inputs(raw)[0]
    off = dataclasses.replace(row, analytical_db=row.analytical_db + 1e-8)
    assert "analytical_db" in checks.check_row(raw, inputs, off)
    raw_sim = workloads.config_dict("flat_n64", 3, tiny=True)
    sim_inputs = checks.sweep_inputs(raw_sim)[0]
    ref_db = checks.reference_point(raw_sim, *sim_inputs)[0]
    biased = dataclasses.replace(row, empirical_db=ref_db + 1.0, stderr_db=0.1, trials=4,
                                 eps1=sim_inputs[0], eps2=sim_inputs[1][0],
                                 analytical_db=ref_db, lambda1=0.0, lambda2=0.0)
    assert "empirical" in checks.check_row(raw_sim, sim_inputs, biased)
