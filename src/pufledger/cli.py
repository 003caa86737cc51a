"""Command line front end.

Subcommands:
  scenario      run a full network scenario and write its artifacts
  fom           measure uniqueness / reliability / randomness for a population
  bench         wall-clock comparison of authentication vs proof-of-work
  verify-chain  check a persisted chain file end to end

The three run subcommands accept --config (flat key=value file), --seed
and --out (scenario: the output directory; fom, bench: the report file).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, ledger
from .errors import PufLedgerError


def _config_from_args(args: argparse.Namespace) -> harness.ScenarioConfig:
    cfg = harness.load_config(args.config) if args.config else harness.ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_scenario(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    report = harness.run_scenario(cfg).report
    print(
        f"seed {cfg.seed}: {report.n_transactions} tx, "
        f"{report.accepted} accepted, {sum(report.rejected_by_reason.values())} rejected, "
        f"{report.n_adversarial} adversarial ({report.adversarial_accepted} accepted), "
        f"mean dt_tx {report.dt_tx_ms['mean']:.1f} ms -> {cfg.out_dir}"
    )
    return 0


def _write_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _cmd_fom(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _write_json(harness.run_fom_calibration(cfg), args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _write_json(harness.run_benchmark(cfg), args.out)
    return 0


def _cmd_verify_chain(args: argparse.Namespace) -> int:
    bad_height = ledger.verify_chain_file(args.chain)
    if bad_height is None:
        print(f"{args.chain}: ok")
        return 0
    print(f"{args.chain}: invalid at height {bad_height}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pufledger",
        description="PUF-backed ledger: scenarios, figures of merit, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_out = "write the JSON report here instead of stdout"
    for name, func, help_text, out_help in (
        ("scenario", _cmd_scenario, "run a network scenario", "override the output directory"),
        ("fom", _cmd_fom, "measure figures of merit", report_out),
        ("bench", _cmd_bench, "authentication vs proof-of-work timing", report_out),
    ):
        run = sub.add_parser(name, help=help_text)
        run.add_argument("--config", help="path to key=value config file")
        run.add_argument("--seed", type=int, help="override the config seed")
        run.add_argument("--out", help=out_help)
        run.set_defaults(func=func)

    verify = sub.add_parser("verify-chain", help="validate a persisted chain file")
    verify.add_argument("chain", help="path to a chain .ndjson file")
    verify.set_defaults(func=_cmd_verify_chain)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PufLedgerError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
