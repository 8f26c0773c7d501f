"""Command-line front end.

    afrelay simulate --config <path|preset> [--mode analytical|simulate|both]
                     [--trials K] [--seed S] [--out results.csv] [--workers W]
    afrelay analyze  --config <path|preset> --out surface.csv
    afrelay presets  list

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""
from __future__ import annotations

import argparse
import sys
import time

from .harness import (
    PRESET_INFO,
    ConfigError,
    config_digest,
    load_config,
    run_sweep,
    with_overrides,
    write_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# Rows printed to stdout; the CSV holds them all.
SUMMARY_ROWS = 20


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afrelay",
        description=(
            "OFDM amplify-and-forward relay link simulator: Monte-Carlo SNR "
            "under per-link carrier frequency offsets, cross-validated against "
            "the closed-form expressions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a sweep (empirical and/or analytical)")
    sim.add_argument("--config", required=True, help="JSON config path or preset name")
    sim.add_argument("--mode", choices=["analytical", "simulate", "both"])
    sim.add_argument("--trials", type=int, help="override the trial count")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--out", default="results.csv", help="output CSV path")
    sim.add_argument("--workers", type=int, help="worker processes for trials")

    ana = sub.add_parser("analyze", help="closed-form SNR surface and sensitivities only")
    ana.add_argument("--config", required=True, help="JSON config path or preset name")
    ana.add_argument("--out", required=True, help="output CSV path")

    pre = sub.add_parser("presets", help="preset management")
    pre.add_argument("action", choices=["list"])
    return parser


def _print_summary(cfg, rows, elapsed: float, out) -> None:
    """Print the run's digest line and its first SUMMARY_ROWS rows."""
    print(f"config digest {config_digest(cfg)}  seed {cfg.master_seed}  "
          f"mode {cfg.mode}  wall time {elapsed:.2f} s")
    for row in rows[:SUMMARY_ROWS]:
        parts = [f"eps1={row.eps1:+.3f} eps2={row.eps2:+.3f}"]
        if row.analytical_db is not None:
            parts.append(f"analytical {row.analytical_db:8.3f} dB")
        if row.empirical_db is not None:
            parts.append(f"empirical {row.empirical_db:8.3f} dB (+/- {row.stderr_db:.3f})")
        if row.analytical_db is not None and row.empirical_db is not None:
            parts.append(f"gap {abs(row.empirical_db - row.analytical_db):6.3f} dB")
        print("  " + "  ".join(parts))
    if len(rows) > SUMMARY_ROWS:
        print(f"  ... {len(rows) - SUMMARY_ROWS} more rows in {out}")


def _run_sweep_command(args, mode_override=None) -> int:
    cfg = load_config(args.config)
    cfg = with_overrides(
        cfg,
        mode=mode_override if mode_override is not None else getattr(args, "mode", None),
        trials=getattr(args, "trials", None),
        master_seed=getattr(args, "seed", None),
        workers=getattr(args, "workers", None),
    )
    start = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    write_csv(rows, args.out)
    _print_summary(cfg, rows, elapsed, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, info in PRESET_INFO.items():
                print(f"{name:16s} {info}")
            return EXIT_OK
        if args.command == "simulate":
            return _run_sweep_command(args)
        if args.command == "analyze":
            return _run_sweep_command(args, mode_override="analytical")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK
