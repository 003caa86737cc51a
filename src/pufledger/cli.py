"""Command line front end.

Subcommands:
  scenario      run a full network scenario and write its artifacts
  fom           measure uniqueness / reliability / randomness for a population
  bench         wall-clock comparison of authentication vs proof-of-work
  verify-chain  check a persisted chain file end to end

Every subcommand accepts --config (flat key=value file) and --seed. The
scenario subcommand can sweep several seeds in parallel worker processes.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import harness, ledger
from .errors import PufLedgerError


def _config_from_args(args: argparse.Namespace) -> harness.ScenarioConfig:
    cfg = harness.load_config(args.config) if args.config else harness.ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _scenario_summary(cfg: harness.ScenarioConfig) -> dict:
    output = harness.run_scenario(cfg)
    report = output.report
    return {
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "n_transactions": report.n_transactions,
        "accepted": report.accepted,
        "rejected": sum(report.rejected_by_reason.values()),
        "n_adversarial": report.n_adversarial,
        "adversarial_accepted": report.adversarial_accepted,
        "mean_dt_tx_ms": report.dt_tx_ms["mean"],
    }


def _print_summary(summary: dict) -> None:
    print(
        f"seed {summary['seed']}: {summary['n_transactions']} tx, "
        f"{summary['accepted']} accepted, {summary['rejected']} rejected, "
        f"{summary['n_adversarial']} adversarial "
        f"({summary['adversarial_accepted']} accepted), "
        f"mean dt_tx {summary['mean_dt_tx_ms']:.1f} ms -> {summary['out_dir']}"
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.seeds:
        try:
            seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
        except ValueError:
            print(f"bad --seeds list: {args.seeds!r}", file=sys.stderr)
            return 2
        if not seeds:
            print("--seeds given but empty", file=sys.stderr)
            return 2
        base = Path(cfg.out_dir)
        configs = [replace(cfg, seed=s, out_dir=str(base / f"seed-{s}")) for s in seeds]
        workers = args.parallel or min(len(configs), 4)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                summaries = list(pool.map(_scenario_summary, configs))
        else:
            summaries = [_scenario_summary(c) for c in configs]
        for summary in summaries:
            _print_summary(summary)
        return 0
    _print_summary(_scenario_summary(cfg))
    return 0


def _write_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _cmd_fom(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _write_json(harness.run_fom_calibration(cfg), args.report_out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _write_json(harness.run_benchmark(cfg), args.report_out)
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

    scenario = sub.add_parser("scenario", help="run a network scenario")
    scenario.add_argument("--config", help="path to key=value config file")
    scenario.add_argument("--seed", type=int, help="override the config seed")
    scenario.add_argument("--out", help="override the output directory")
    scenario.add_argument("--seeds", help="comma list of seeds to sweep")
    scenario.add_argument("--parallel", type=int,
                          help="worker processes for a --seeds sweep")
    scenario.set_defaults(func=_cmd_scenario)

    fom = sub.add_parser("fom", help="measure figures of merit")
    fom.add_argument("--config", help="path to key=value config file")
    fom.add_argument("--seed", type=int, help="override the config seed")
    fom.add_argument("--out", dest="report_out",
                     help="write the JSON report here instead of stdout")
    fom.set_defaults(func=_cmd_fom)

    bench = sub.add_parser("bench", help="authentication vs proof-of-work timing")
    bench.add_argument("--config", help="path to key=value config file")
    bench.add_argument("--seed", type=int, help="override the config seed")
    bench.add_argument("--out", dest="report_out",
                       help="write the JSON report here instead of stdout")
    bench.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify-chain", help="validate a persisted chain file")
    verify.add_argument("chain", help="path to a chain .ndjson file")
    verify.set_defaults(func=_cmd_verify_chain)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PufLedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
