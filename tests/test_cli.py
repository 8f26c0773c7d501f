"""Command-line interface: subcommands, exit codes, file outputs."""
import copy
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from afrelay import harness
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


DATA = Path(__file__).resolve().parent / "data"


def _two_relays():
    """fig3_flat with a second relay at offset 0.2 and fixed gain 0.7,
    swept along eps1: the two-relay config the CI workflow runs."""
    raw = copy.deepcopy(harness.PRESETS["fig3_flat"])
    raw["relays"].append(dict(raw["relays"][0], cfo=0.2, gain={"mode": "fixed", "rho": 0.7}))
    raw["sweep"]["axis"] = "eps1"
    return raw


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
        assert fields[3] == fields[4] == ""  # empirical_db, stderr_db empty
        assert fields[7] == "0" and fields[8] == str(SMALL["master_seed"])  # trials, seed
    # analyze sets no trials, seed or workers: argparse rejects them
    for flag, value in (("--trials", "8"), ("--seed", "1"), ("--workers", "2"), ("--mode", "both")):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--config", str(config_path), "--out", str(out), flag, value])
        assert exit_info.value.code == 2  # argparse's usage error


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


def test_config_errors_exit_with_config_code(config_path, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err

    # overrides are checked like config values
    for flag, value, message in (("--workers", "0", "workers must be >= 1"),
                                 ("--seed", "-1", "master_seed must be a 64-bit")):
        out = tmp_path / "override.csv"
        assert main(["simulate", "--config", str(config_path), flag, value,
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    bad, out = tmp_path / "bad.json", tmp_path / "bad.csv"
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

    # finite values whose branch power overflows or underflows: the relay's
    # a_b = rho^2 * 1 * 4 * s_X, and rho^2 overflowing on its own
    overflow = {**SMALL, "ofdm": {**SMALL["ofdm"], "symbol_power": 1e308}}
    weak = {**SMALL["relays"][0], "hop1_profile": {"kind": "flat", "power": 1e-10}}
    underflow = {**SMALL, "ofdm": {**SMALL["ofdm"], "symbol_power": 5e-324}, "relays": [weak]}
    tiny = {**SMALL["relays"][0], "hop1_profile": {"kind": "flat", "power": 5e-324},
            "gain": {"mode": "upa_asymptotic"}}
    for raw in (overflow, underflow, {**SMALL, "relays": [tiny]}):
        for mode in ("analytical", "simulate"):
            bad.write_text(json.dumps({**raw, "mode": mode}))
            assert main(["simulate", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
            assert "config error: relays[0]: coherent power" in capsys.readouterr().err
            assert not out.exists()
    loud = {**SMALL["direct"], "profile": {"kind": "flat", "power": 2.0}}
    bad.write_text(json.dumps({**overflow, "direct": loud}))  # the direct link overflows first
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: direct: coherent power inf" in capsys.readouterr().err

    # without relay noise, a relay input power that underflows to 0 leaves
    # the gain undefined: the hop's taps of power 5e-324 / 4 round to 0, or
    # its power 1e-200 times the source's does
    faint = {"kind": "uniform", "n_taps": 4, "power": 5e-324}
    for hop1, gain in ((faint, SMALL["relays"][0]["gain"]), (faint, {"mode": "upa_asymptotic"}),
                       ({"kind": "flat", "power": 1e-200},
                        {"mode": "general", "source_power": 1e-200, "relay_power": 1.0})):
        relay = {**SMALL["relays"][0], "hop1_profile": hop1, "relay_noise_var": 0.0, "gain": gain}
        bad.write_text(json.dumps({**SMALL, "relays": [relay]}))
        assert main(["analyze", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert "config error: relays[0]" in capsys.readouterr().err
        assert not out.exists()

    # an unhashable value where a name belongs
    bad.write_text(json.dumps({**SMALL, "ofdm": {**SMALL["ofdm"], "constellation": ["qpsk"]}}))
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: ofdm: unknown constellation ['qpsk']" in capsys.readouterr().err
    assert not out.exists()
    relay = {**SMALL["relays"][0], "gain": {"mode": ["upa"], "total_power": 2.0}}
    bad.write_text(json.dumps({**SMALL, "relays": [relay]}))
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: relays[0].gain: unknown gain mode ['upa']" in capsys.readouterr().err
    assert not out.exists()

    # each gain mode reads only its own keys, and any other is an error
    # naming the relay's gain and the key
    for gain, key in (({"mode": "upa", "total_power": 2.0, "rho": 0.5}, "rho"),
                      ({"mode": "fixed", "rho": 1.0, "total_power": -3.0}, "total_power"),
                      ({"mode": "general", "source_power": 1.0, "relay_power": 1.0,
                        "total_power": 2.0}, "total_power"),
                      ({"mode": "upa_asymptotic", "source_power": 1.0}, "source_power")):
        bad.write_text(json.dumps({**SMALL, "relays": [{**SMALL["relays"][0], "gain": gain}]}))
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: relays[0].gain: {gain['mode']} gain mode does not read {key}" in err
        assert not out.exists()

    # JSON integers beyond the float range: the closed form reads N as a
    # float, and cp_len < n_subcarriers bounds the prefix by the same range
    for n, cp, key in ((10 ** 400, 16, "n_subcarriers"), (10 ** 400, 10 ** 399, "n_subcarriers"),
                       (64, 10 ** 399, "cp_len")):
        bad.write_text(json.dumps({**SMALL, "ofdm": {**SMALL["ofdm"], "n_subcarriers": n,
                                                     "cp_len": cp}}))
        assert main(["analyze", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: ofdm: {key} must" in capsys.readouterr().err
        assert not out.exists()
    # an N near the top of the float range still has a closed form
    bad.write_text(json.dumps({**SMALL, "ofdm": {**SMALL["ofdm"], "n_subcarriers": 10 ** 308}}))
    assert main(["analyze", "--config", str(bad), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("text", [
    '{"trials": 1' + "0" * 5000 + "}",  # beyond Python's 4,300-digit integer limit
    "[" * 200000,                       # nested beyond the parser's recursion limit
], ids=["long_integer", "deep_nesting"])
def test_unreadable_json_exits_with_config_code(text, tmp_path, capsys):
    # json.loads raises a plain ValueError or a RecursionError here, not a
    # JSONDecodeError, and both are config errors
    bad, out = tmp_path / "bad.json", tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["analyze", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: config" in capsys.readouterr().err
    assert not out.exists()


def test_runtime_errors_exit_with_runtime_code(config_path, tmp_path, capsys):
    rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path)])
    assert rc == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def test_block_failure_names_its_block_range(config_path, tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise ValueError("engine failed")

    monkeypatch.setattr(harness, "simulate_block", broken)
    out = tmp_path / "out.csv"
    rc = main(["simulate", "--config", str(config_path), "--workers", "1", "--out", str(out)])
    assert rc == EXIT_RUNTIME
    assert "runtime error: blocks [0, 1): engine failed" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(RuntimeError, match=r"blocks \[0, 1\)") as failure:
        harness.run_sweep(harness.load_config(config_path))
    assert isinstance(failure.value.__cause__, ValueError)


@pytest.mark.parametrize("symbol_power, hop_power, message", [
    (1e306, None, "blocks [0, 3): direct: overflow"),
    (1e303, None, "row 0 (eps1=0, eps2=0): the signal power total of 2000 trials"),
    (1.0, 1e160, "blocks [0, 3): relays[0]: overflow"),
], ids=["1e+306", "1e+303", "loud_relay"])
def test_overflowed_power_sums_exit_with_runtime_code(symbol_power, hop_power, message,
                                                       tmp_path, capsys):
    # at 1e306 a per-trial sum overflows in the engine, at 1e303 only the
    # totals of the 2000 trials do, and a relay of hop powers 1e160 squares
    # its flat response h1 h2 beyond the float range: each ends the run
    # instead of writing inf, without a numpy warning; the closed form,
    # a_b = rho^2 * 1e160 * 1e160 * s_X at rho^2 ~ 1e-160, stays finite
    raw = copy.deepcopy(harness.PRESETS["fig3_flat"])
    raw["ofdm"]["symbol_power"] = symbol_power
    if hop_power is not None:
        raw["relays"][0].update(hop1_profile={"kind": "flat", "power": hop_power},
                                hop2_profile={"kind": "flat", "power": hop_power})
    config, out = tmp_path / "large.json", tmp_path / "large.csv"
    config.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--config", str(config), "--mode", "simulate", "--out", str(out)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    # the engine names the branch whose power overflowed, the totals the
    # first point and the total
    assert "overflow" in err and message in err
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert main(["simulate", "--config", str(config), "--mode", "analytical",
                 "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--trials", "8"]])
@pytest.mark.parametrize("case, scale", [("signal", "0.1"), ("noise", "1.0")])
def test_overflowing_branch_sums_exit_with_config_code(case, scale, command, tmp_path, capsys):
    # each branch's a_b and s_b is finite but their sum over branches is
    # not: at symbol power 1e308 with a relay second hop of power 1, a_b is
    # 1e308 on the direct link and about 0.9e308 on the relay, the closed
    # form's num; 1e308 noise on the direct link and at the relay's
    # destination overflows its den at noise scale 1.  Unchecked, both
    # wrote inf dB or nan slopes with exit 0.
    raw = copy.deepcopy(harness.PRESETS["fig3_flat"])
    if case == "signal":
        raw["ofdm"]["symbol_power"] = 1e308
        raw["relays"][0]["hop2_profile"] = {"kind": "flat", "power": 1.0}
    else:
        raw["direct"]["noise_var"] = raw["relays"][0]["dest_noise_var"] = 1e308
    config, out = tmp_path / "sums.json", tmp_path / "sums.csv"
    config.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*command, "--config", str(config), "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: branch powers and noise overflow at noise scale {scale}" in err
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


@pytest.mark.parametrize("name, trials", [
    ("fig4_selective", 204), ("two_relays", 204), ("fig4_selective", 820),
], ids=["fig4_selective", "two_relays", "fig4_selective_trials820"])
def test_simulate_reproduces_the_golden_csv(name, trials, tmp_path):
    # the random stream and everything after it, pinned at 204 trials (part
    # of one block at N=64) and at 820, one full block of 819 and one trial
    # of the next, which pins where a block ends; rel 1e-7 allows
    # 9th-digit rounding across numpy builds, so only a change to the
    # stream or the model moves these files
    config = name
    if name == "two_relays":
        config = tmp_path / "two_relays.json"
        config.write_text(json.dumps(_two_relays()))
    size = harness.block_size(harness.load_config(config).ofdm)
    assert trials <= size or trials == size + 1
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(config), "--trials", str(trials),
                 "--out", str(out)]) == EXIT_OK
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    golden_header, *golden_rows = (DATA / f"{name}_trials{trials}.csv").read_text(
        encoding="utf-8").splitlines()
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    for row, golden in zip(rows, golden_rows):
        assert [float(v) for v in row.split(",")] == pytest.approx(
            [float(v) for v in golden.split(",")], rel=1e-7, abs=0)


def test_one_trial_writes_nan_stderr(tmp_path):
    # one trial has no sample variance: stderr_db is nan, the estimate finite
    out = tmp_path / "one.csv"
    assert main(["simulate", "--config", "fig3_flat", "--trials", "1",
                 "--out", str(out)]) == EXIT_OK
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    for row in rows:
        record = dict(zip(columns, row.split(",")))
        assert record["stderr_db"] == "nan"
        assert math.isfinite(float(record["empirical_db"]))
        assert record["trials"] == "1"
