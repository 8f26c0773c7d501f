"""Command-line interface: subcommands, exit codes, file outputs."""
import json
import subprocess
import sys

import pytest

from afrelay.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, SUMMARY_ROWS, main

SMALL = {
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
    "trials": 32,
    "master_seed": 3,
    "mode": "both",
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return path


def test_presets_list(capsys):
    assert main(["presets", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fig3_flat" in out and "fig4_selective" in out


def test_simulate_writes_csv_and_summary(config_path, tmp_path, capsys):
    out = tmp_path / "results.csv"
    rc = main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "config digest" in stdout and "gap" in stdout
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("eps1,eps2,analytical_db")
    assert len(lines) == 3  # header + 2 grid points


def test_simulate_accepts_preset_name_and_overrides(tmp_path, capsys):
    out = tmp_path / "preset.csv"
    rc = main([
        "simulate", "--config", "fig3_flat", "--mode", "analytical",
        "--trials", "8", "--seed", "11", "--out", str(out),
    ])
    assert rc == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    record = lines[1].split(",")
    assert record[3] == ""  # no empirical column in analytical mode
    assert record[8] == "11"  # seed override reaches the output


def test_analyze_writes_surface(config_path, tmp_path):
    out = tmp_path / "surface.csv"
    rc = main(["analyze", "--config", str(config_path), "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] != "" and fields[5] != ""  # analytical_db, lambda1
        assert fields[3] == ""  # empirical empty


def test_analyze_summary_is_bounded_on_a_large_surface(tmp_path, capsys):
    # a 1,000-point surface prints a fixed number of rows, not one per row
    raw = {**SMALL, "sweep": {"axis": "both_equal",
                              "grid": [-0.45 + 0.9 * i / 999 for i in range(1000)]}}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "surface.csv"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) <= 25
    assert lines[0].startswith("config digest")
    assert lines[-2] == f"  ... {1000 - SUMMARY_ROWS} more rows in {out}"
    assert lines[-1] == f"wrote 1000 rows to {out}"
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1001


def test_config_errors_exit_with_config_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL, "surprise": 1}))
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    assert "surprise" in capsys.readouterr().err

    bad.write_text(json.dumps({**SMALL, "ofdm": 5}))
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    assert "ofdm must be an object" in capsys.readouterr().err

    silent = {**SMALL["direct"], "profile": {"kind": "flat", "power": 0.0}}
    bad.write_text(json.dumps({**SMALL, "direct": silent}))
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    assert "direct.profile: total power must be > 0" in capsys.readouterr().err

    huge = {**SMALL["direct"], "profile": {"kind": "uniform", "n_taps": 10 ** 15, "power": 1.0}}
    bad.write_text(json.dumps({**SMALL, "direct": huge}))
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    assert "n_taps" in capsys.readouterr().err


def test_runtime_errors_exit_with_runtime_code(config_path, tmp_path, capsys):
    rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path)])
    assert rc == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def test_module_entry_point_runs(config_path, tmp_path):
    out = tmp_path / "module.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "afrelay", "simulate", "--config", str(config_path),
         "--out", str(out), "--trials", "8"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
