"""The documented CLI runs: one table of named cases, one runner for all.

    python tests/cli_runs.py DIR

runs every case through `python -m afrelay` in a subprocess, since exit
codes are part of the contract, with PYTHONWARNINGS=error::RuntimeWarning,
and writes its CSVs as DIR/<case>.csv, DIR/<case>_w<W>.csv for each further
`--workers W` and DIR/<case>_blas<T>.csv at OPENBLAS_NUM_THREADS=T.  It runs
whichever `afrelay` the environment imports, so two versions compare as

    PYTHONPATH=<parent>/src python tests/cli_runs.py A
    PYTHONPATH=src python tests/cli_runs.py B
    diff -r A B

The runner checks every case the same way:
- each run exits with the case's code, and a run that fails writes no CSV;
- no CSV holds `nan` or `inf`, and each has the case's line count if given;
- the `workers` runs are byte-identical to the first, workers = 1, and the
  `blas` runs at one and two BLAS threads to each other;
- a `reference` case equals its CSV formatted field by field in-process.
It exits 1 naming each failed case.  Pytest does not collect this file;
`tests/test_cli_runs.py` checks the table itself.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path

from afrelay.harness import CSV_HEADER, PRESETS, load_config, run_sweep

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "benchmarks"))
import workloads  # noqa: E402 -- the benchmark's configs, read only


def _hop(n_taps, power):
    return ({"kind": "uniform", "n_taps": n_taps, "power": power} if n_taps > 1
            else {"kind": "flat", "power": power})


def _edit(preset, **changes):
    """A deep copy of `preset`: a dict updates that section (`relay` the
    first relay), any other value replaces the field."""
    raw = copy.deepcopy(PRESETS[preset])
    for key, value in changes.items():
        if isinstance(value, dict):
            (raw["relays"][0] if key == "relay" else raw[key]).update(value)
        else:
            raw[key] = value
    return raw


def two_relays(n_subcarriers=64):
    """fig3_flat with a second relay at offset 0.2 and fixed gain 0.7,
    swept along eps1."""
    raw = _edit("fig3_flat", ofdm={"n_subcarriers": n_subcarriers}, sweep={"axis": "eps1"})
    raw["relays"].append(dict(raw["relays"][0], cfo=0.2, gain={"mode": "fixed", "rho": 0.7}))
    return raw


def flat16():
    """fig3_flat with 16 flat relays at offsets 0, 0.2, -0.3 and 0.5."""
    raw = _edit("fig3_flat", sweep={"axis": "eps1"})
    raw["relays"] = [dict(raw["relays"][0], cfo=cfo) for cfo in [0.0, 0.2, -0.3, 0.5] * 4]
    return raw


def _relay(raw, one, two, **changes):
    """`raw`'s first relay with hops of `one` and `two` taps, powers 1 and 4."""
    return dict(raw["relays"][0], hop1_profile=_hop(one, 1.0), hop2_profile=_hop(two, 4.0),
                **changes)


def hop_pairs(cp_len, *taps):
    """fig4_selective at prefix `cp_len`, one relay per (hop 1, hop 2) taps."""
    raw = _edit("fig4_selective", ofdm={"cp_len": cp_len})
    raw["relays"] = [_relay(raw, one, two) for one, two in taps]
    return raw


def mixed():
    """fig4_selective with a flat direct link and two flat relays beside its
    multi-tap one, swept along both_equal."""
    raw = _edit("fig4_selective", direct={"profile": _hop(1, 1.0)}, sweep={"axis": "both_equal"})
    raw["relays"] += [_relay(raw, 1, 1, cfo=cfo) for cfo in (0.2, -0.3)]
    return raw


def long_channel():
    """fig4_selective at N = 256 with 33 taps on every hop."""
    return _edit("fig4_selective", ofdm={"n_subcarriers": 256, "cp_len": 64},
                 direct={"profile": _hop(33, 1.0)},
                 relay={"hop1_profile": _hop(33, 1.0), "hop2_profile": _hop(33, 4.0)})


def faint(hop1, **relay):
    """fig3_flat without relay noise, its first hop `hop1`."""
    return _edit("fig3_flat", relay={"hop1_profile": hop1, "relay_noise_var": 0.0, **relay})


def large_powers():
    return _edit("fig3_flat", ofdm={"symbol_power": 1e306})


def wide4():
    return workloads.wide4_n1024(20260808, False)


@dataclass(frozen=True)
class Case:
    name: str
    config: object    # a preset name, a path under the repo, or a builder
    args: str         # the CLI arguments but --config, --workers and --out
    exit: int = 0
    workers: tuple = ()       # --workers values, the first 1
    blas: str | None = None   # the arguments of a run at 1 and at 2 BLAS threads
    lines: int | None = None
    reference: bool = False


CASES = [
    Case("cfo_surface", "examples/cfo_surface.json", "analyze", lines=92),
    Case("flat_sweep", "fig3_flat", "simulate --trials 1700", workers=(1, 2)),
    Case("cfo_sweep", "examples/cfo_surface.json", "simulate --mode both --trials 1700",
         workers=(1, 2)),
    Case("paired", "fig4_selective", "simulate --trials 2500", workers=(1, 3)),
    Case("wide4_n1024", wide4, "simulate --trials 200", workers=(1, 3),
         blas="simulate --trials 45"),
    Case("wide4_n1024_short", wide4, "simulate --trials 150", workers=(1, 2)),
    Case("analytic_surface", lambda: workloads.analytic_surface(20260808, False), "analyze",
         lines=30001, reference=True),
    Case("long_channel", long_channel, "simulate --trials 700", workers=(1, 3)),
    Case("rule_boundary", lambda: hop_pairs(16, (8, 9), (9, 9)), "simulate --trials 1700",
         workers=(1, 2)),
    Case("flat_beside_long", lambda: hop_pairs(40, (1, 33), (33, 1)), "simulate --trials 1300",
         workers=(1, 2)),
    Case("memory_at_prefix", lambda: _edit("fig4_selective", ofdm={"cp_len": 6}),
         "simulate --trials 1900", workers=(1, 2)),
    Case("memory_beyond_prefix", lambda: _edit("fig4_selective", ofdm={"cp_len": 5}), "simulate",
         exit=2),
    Case("two_relays", two_relays, "simulate --trials 1700", workers=(1, 2)),
    Case("two_relays_n127", lambda: two_relays(127), "simulate --trials 1400", workers=(1, 3)),
    Case("flat16", flat16, "simulate --trials 1700", workers=(1, 2), blas="simulate --trials 408"),
    Case("mixed", mixed, "simulate --trials 1700", workers=(1, 2)),
    Case("bad", lambda: _edit("fig3_flat", ofdm={"constellation": ["qpsk"]}), "simulate", exit=2),
    Case("unread_gain_key", lambda: _edit("fig3_flat", relay={"gain": {
        "mode": "upa", "total_power": 2.0, "rho": 0.5}}), "simulate", exit=2),
    Case("overflow", lambda: _edit("fig3_flat", ofdm={"symbol_power": 1e308}), "simulate", exit=2),
    Case("large_powers", large_powers, "simulate --mode analytical"),
    Case("large_powers_sim", large_powers, "simulate --mode simulate", exit=1),
    Case("faint_taps", lambda: faint(_hop(4, 5e-324)), "analyze", exit=2),
    Case("faint_taps_asymptotic", lambda: faint(_hop(4, 5e-324), gain={"mode": "upa_asymptotic"}),
         "analyze", exit=2),
    Case("faint_input", lambda: faint(_hop(1, 1e-200), gain={
        "mode": "general", "source_power": 1e-200, "relay_power": 1.0}), "analyze", exit=2),
    Case("loud_relay", lambda: _edit("fig3_flat", relay={
        "hop1_profile": _hop(1, 1e160), "hop2_profile": _hop(1, 1e160)}),
         "simulate --mode simulate", exit=1),
    Case("overflowing_signal_sum", lambda: _edit("fig3_flat", ofdm={"symbol_power": 1e308},
                                                 relay={"hop2_profile": _hop(1, 1.0)}),
         "analyze", exit=2),
    Case("overflowing_noise_sum", lambda: _edit("fig3_flat", direct={"noise_var": 1e308},
                                                relay={"dest_noise_var": 1e308}),
         "analyze", exit=2),
    Case("no_workers", "fig3_flat", "simulate --workers 0", exit=2),
    Case("long_integer", lambda: '{"trials": 1' + "0" * 5000 + "}", "analyze", exit=2),
    Case("huge_n", lambda: _edit("fig3_flat", ofdm={"n_subcarriers": 10 ** 400}), "analyze",
         exit=2),
    Case("tiny_noise", lambda: _edit("fig3_flat", noise_scales=[1e-22, 1e-26, 1e-30],
                                     sweep={"grid": [0.0, 0.1]}), "simulate --trials 408"),
]


def runs(case: Case, directory: Path) -> list:
    """The case's groups of runs, each run (CLI arguments, environment,
    CSV path); a built config is written to DIR/<case>.json first."""
    config = case.config
    if callable(config):
        raw, config = config(), directory / f"{case.name}.json"
        config.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    elif config not in PRESETS:
        config = ROOT / config

    def run(args, suffix="", **env):
        out = directory / f"{case.name}{suffix}.csv"
        return [*args.split(), "--config", str(config), "--out", str(out)], env, out

    groups = [[run(f"{case.args} --workers {w}", f"_w{w}" * (w > 1)) for w in case.workers]
              or [run(case.args)]]
    if case.blas:
        groups.append([run(case.blas, f"_blas{t}", OPENBLAS_NUM_THREADS=str(t)) for t in (1, 2)])
    return groups


def reference(config) -> str:
    """The CSV of a sweep, formatted field by field from `run_sweep`."""
    def field(v):
        return "" if v is None else format(v, ".9g") if isinstance(v, float) else str(v)
    rows = (",".join(map(field, astuple(row))) for row in run_sweep(load_config(config)))
    return "".join(f"{line}\n" for line in (CSV_HEADER, *rows))


def check(case: Case, directory: Path) -> list:
    """Run `case` and return its failures."""
    failures = []
    for group in runs(case, directory):
        outputs = []
        for argv, env, out in group:
            out.unlink(missing_ok=True)
            proc = subprocess.run([sys.executable, "-m", "afrelay", *argv], capture_output=True,
                                  text=True, env={**os.environ, **env,
                                                  "PYTHONWARNINGS": "error::RuntimeWarning"})
            if proc.returncode != case.exit:
                stderr = proc.stderr.strip().splitlines() or [""]
                failures.append(f"{out.name}: exit {proc.returncode}, expected {case.exit}: "
                                f"{stderr[-1]}")
            elif case.exit and out.exists():
                failures.append(f"{out.name}: exit {case.exit} but a CSV was written")
            elif not case.exit:
                data = out.read_bytes()
                outputs.append(data)
                lines = data.count(b"\n")
                if b"nan" in data or b"inf" in data:
                    failures.append(f"{out.name}: nan or inf in the CSV")
                if case.lines not in (None, lines):
                    failures.append(f"{out.name}: {lines} lines, expected {case.lines}")
        if any(data != outputs[0] for data in outputs):
            failures.append(f"{' '.join(out.name for *_, out in group)} differ")
    if case.reference and not failures:
        ref = directory / f"{case.name}_ref.csv"
        ref.write_bytes(reference(directory / f"{case.name}.json").encode())
        if ref.read_bytes() != (directory / f"{case.name}.csv").read_bytes():
            failures.append(f"{case.name}.csv differs from its reference {ref.name}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run and check the documented CLI runs.")
    parser.add_argument("directory", type=Path, help="where the configs and CSVs are written")
    directory = parser.parse_args(argv).directory
    directory.mkdir(parents=True, exist_ok=True)
    warnings.simplefilter("error", RuntimeWarning)  # as the subprocesses run
    failed = []
    for case in CASES:
        failures = check(case, directory)
        print(f"{'FAIL' if failures else 'ok'} {case.name}", *failures, sep="\n  ", flush=True)
        if failures:
            failed.append(case.name)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases passed"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
