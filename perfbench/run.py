"""pufledger benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload scenario-default --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py                  # every workload, one after the other

A run builds its inputs from --seed, repeats the workload's user operation
until --seconds have passed (and at least MIN_REPEATS times), gates every
repeat's outputs (gate.py), prints one metric per line, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. Times of these
untraced repeats are scaled to a reference host speed (REFERENCE_S). With
--trace 0 the JSON holds the end-to-end metrics. With --trace 1 the run then
repeats the operation with every layer wrapped (tracer.py) and the JSON
holds the per-layer metrics, in host seconds. It exits 1 when any check
fails. README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pufledger  # noqa: E402

if Path(pufledger.__file__).resolve().parent != ROOT / "src" / "pufledger":
    raise ImportError(f"pufledger must be imported from {ROOT / 'src'}, not {pufledger.__file__}")

from pufledger import harness, ledger  # noqa: E402

import gate  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_REPEATS = 3         # untraced repeats per run
TRACED_REPEATS = 2      # traced repeats per run, so the counters are compared too
# Untraced repeats cycle through POPULATIONS device populations, population r
# being ScenarioConfig(seed=seed + r * POPULATION_STRIDE). Enrolled-challenge
# counts, and with them the work, differ widely between populations; a median
# over several keeps that out of the run-to-run spread, and a population met
# again must reproduce its outputs exactly. Seeds below the stride never share
# a population.
POPULATIONS = 8
POPULATION_STRIDE = 1 << 32
# End-to-end times are scaled to the host speed at which reference_s() takes
# REFERENCE_S, about its median on a 2-vCPU Intel Xeon VM. Host speed there
# drifts by up to 40% over tens of seconds to minutes, and the kernel, timed
# before and after every repeat, drifts with it.
REFERENCE_S = 0.025
OUT_ROOT = ROOT / ".perfbench-out"


@dataclass(frozen=True)
class Workload:
    kind: str  # "scenario" runs run_scenario, "fom" runs run_fom_calibration
    overrides: dict

    def config(self, seed: int, out_dir: Path) -> harness.ScenarioConfig:
        return replace(harness.ScenarioConfig(), seed=seed, out_dir=str(out_dir), **self.overrides)


WORKLOADS = {
    "scenario-default": Workload("scenario", {"adversary": "forge-validator",
                                              "adversary_events": 3}),
    "fom-calibration": Workload("fom", {}),
}

# spans timed with tracing off: one or a few hundred calls per repeat
PROBES = {
    "scenario": ("harness.build_world", "netsim.run"),
    "fom": ("puf.manufacture", "puf.random_challenge"),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

EVENT_KINDS = ("initiate", "deliver", "accept", "reject", "rebroadcast", "ignore", "lose",
               "tamper", "inject", "inject-noop", "penalize", "demote")
CALLS = ("puf.evaluate", "puf.reference_response", "puf.Response.packed",
         "fom.screen_challenge", "registry.lookup", "consensus.initiate",
         "consensus.authenticate", "consensus.accept_validated", "ledger.sha256",
         "ledger.make_auth_tag", "ledger.make_entry")
TOTAL_S = ("puf.manufacture", "puf.evaluate", "puf.reference_response", "fom.reliability",
           "fom.uniqueness", "fom.mean_abs_correlation", "registry.enroll",
           "consensus.initiate", "ledger.make_auth_tag", "ledger.append", "ledger.save_chain",
           "ledger.verify_chain_file", "netsim.run", "netsim.save_events",
           "harness.build_world", "harness.build_metrics", "harness.run_fom_calibration")
SELF_S = ("fom.screen_challenge", "consensus.authenticate", "consensus.accept_validated")
SAMPLED = ("consensus.authenticate", "consensus.accept_validated")

PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.s": "s" for name in TOTAL_S},
    **{f"{name}.self_s": "s" for name in SELF_S},
    **{f"{name}.{stat}": unit for name in SAMPLED
       for stat, unit in (("p50_us", "us"), ("p99_us", "us"), ("hashes_per_call", "hashes"))},
    "fom.screen_accept_ratio": "ratio",
    "registry.stored_responses": "count",
    "ledger.verify.entries_per_s": "entries/s",
    "netsim.self_s": "s",
    **{f"netsim.events.{kind}": "count" for kind in EVENT_KINDS},
    "harness.write_other.s": "s",
    "sim_tx_per_s": "tx/s",
    "verify_s": "s",
    "sim_dt_tx_p50_ms": "sim_ms",
    "sim_dt_tx_p99_ms": "sim_ms",
    "trace.overhead_s": "s",
}


@dataclass
class Repeat:
    """One execution of the workload's user operation."""

    seed: int  # the population's ScenarioConfig seed
    wall_s: float
    setup_s: float
    check: gate.Check
    stats: dict
    sim_tx_per_s: float = 0.0
    verify_s: float = 0.0
    reference_s: float = REFERENCE_S  # reference kernel time around this repeat
    peak_rss_mb: float = 0.0  # the process's peak so far, when this repeat ended

    @property
    def speed(self) -> float:
        """Factor that scales this repeat's host seconds to reference speed."""
        return REFERENCE_S / self.reference_s


def reference_s() -> float:
    """Time a fixed kernel of the kinds of work pufledger does: small-array
    numpy indexing and comparison, SHA-256 of short inputs, and building
    small dicts and tuples. It never calls pufledger, so no change to the
    program can move it."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    freqs = rng.normal(size=512)
    total = 0
    for i in range(1500):
        pick = rng.integers(0, 256, size=128)
        total += int((freqs[pick] > freqs[pick + 256]).sum())
        total += hashlib.sha256(i.to_bytes(8, "big") * 8).digest()[0]
        total += len({j: (j, i) for j in range(30)})
    return time.perf_counter() - start


def run_once(workload: Workload, cfg: harness.ScenarioConfig, spans) -> Repeat:
    """Run the operation once with `spans` wrapped, then gate its outputs."""
    clock = time.perf_counter
    with Tracer(spans) as tracer:
        start = clock()
        if workload.kind == "fom":
            report = harness.run_fom_calibration(cfg)
            wall_s = clock() - start
        else:
            output = harness.run_scenario(cfg)
            wall_s = clock() - start
            start = clock()
            verified = {path: ledger.verify_chain_file(path)
                        for name, path in output.files.items() if name.startswith("chain_")}
            verify_s = clock() - start
    stats = tracer.stats
    if workload.kind == "fom":
        setup_s = stats["puf.manufacture"].total_s + stats["puf.random_challenge"].total_s
        run = Repeat(cfg.seed, wall_s, setup_s, gate.check_fom(report), stats)
    else:
        check = gate.check_scenario(output, verified)
        run = Repeat(cfg.seed, wall_s, stats["harness.build_world"].total_s, check, stats,
                     sim_tx_per_s=check.facts["settled"] / stats["netsim.run"].total_s,
                     verify_s=verify_s)
    if threading.active_count() != 1:
        # a thread left running would slow reference_s() and flatter the scaled times
        run.check.breaches.append("the program left threads running")
    return run


def repeat(workload: Workload, seeds, out_dir: Path, spans, seconds: float,
           minimum: int) -> list[Repeat]:
    """Run once per seed from `seeds` until `seconds` and `minimum` runs are reached."""
    runs: list[Repeat] = []
    start = time.perf_counter()
    while len(runs) < minimum or time.perf_counter() - start < seconds:
        before = reference_s()
        run = run_once(workload, workload.config(next(seeds), out_dir), spans)
        run.reference_s = (before + reference_s()) / 2
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB
        runs.append(run)
    return runs


def _percentile_us(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e6 if samples else 0.0


def layer_values(run: Repeat) -> dict[str, float]:
    """Per-layer metrics of one traced repeat."""
    stats = run.stats
    values: dict[str, float] = {}
    for name in CALLS:
        values[f"{name}.calls"] = stats[name].calls
    for name in TOTAL_S:
        values[f"{name}.s"] = stats[name].total_s
    for name in SELF_S:
        values[f"{name}.self_s"] = stats[name].self_s
    for name in SAMPLED:
        stat = stats[name]
        values[f"{name}.p50_us"] = _percentile_us(stat.samples, 50)
        values[f"{name}.p99_us"] = _percentile_us(stat.samples, 99)
        values[f"{name}.hashes_per_call"] = stat.measure / stat.calls if stat.calls else 0.0
    screen = stats["fom.screen_challenge"]
    values["fom.screen_accept_ratio"] = screen.measure / screen.calls if screen.calls else 0.0
    values["registry.stored_responses"] = stats["registry.enroll"].measure
    verify = stats["ledger.verify_chain_file"]
    values["ledger.verify.entries_per_s"] = (
        run.check.facts["chain_entries"] / verify.total_s if verify.calls else 0.0)
    values["netsim.self_s"] = stats["netsim.run"].self_s
    events = run.check.signature.get("events", {})
    for kind in EVENT_KINDS:
        values[f"netsim.events.{kind}"] = events.get(kind, 0)
    # run_scenario's own time, outside the spans above: registry, metrics.json, timings.csv
    values["harness.write_other.s"] = stats["harness.run_scenario"].self_s
    return values


def summarize(untraced: list[Repeat],
              traced: list[Repeat]) -> tuple[dict, dict, dict, list[str]]:
    """Return (end-to-end metrics, their unscaled host times, per-layer
    metrics, breaches) over all repeats.

    The traced repeats rerun the first untraced repeat's population."""
    runs = untraced + traced
    breaches = sorted({b for run in runs for b in run.check.breaches})
    signatures: dict[int, dict] = {}
    if any(signatures.setdefault(run.seed, run.check.signature) != run.check.signature
           for run in runs):
        breaches.append("artifacts, event counts or simulated times differ between "
                        "repeats of one population")
    first = untraced[0]
    counters = [{name: (s.calls, s.measure) for name, s in run.stats.items()} for run in traced]
    if any(c != counters[0] for c in counters):
        breaches.append("call counters differ between traced repeats")
    for run in traced:
        breaches += gate.reconcile(run.stats, run.check.facts)

    def median(values) -> float:
        return float(statistics.median(values))

    end_to_end = {
        "setup_s": median(run.setup_s * run.speed for run in untraced),
        "wall_s": median(run.wall_s * run.speed for run in untraced),
        # the seed's own population, so the figure does not depend on the repeat count
        "peak_rss_mb": first.peak_rss_mb,
    }
    host = {
        "setup_host_s": median(run.setup_s for run in untraced),
        "wall_host_s": median(run.wall_s for run in untraced),
        "reference_s": median(run.reference_s for run in untraced),
    }
    per_layer: dict[str, float] = {}
    if traced:
        layer = [layer_values(run) for run in traced]
        # counts are equal in every traced repeat (checked above); times take the median
        per_layer = {name: layer[0][name] if PER_LAYER[name] == "count"
                     else median(values[name] for values in layer) for name in layer[0]}
        per_layer["trace.overhead_s"] = median(run.wall_s for run in traced) - first.wall_s
    per_layer.update({
        "sim_tx_per_s": median(run.sim_tx_per_s / run.speed for run in untraced),
        "verify_s": median(run.verify_s * run.speed for run in untraced),
        "sim_dt_tx_p50_ms": first.check.signature.get("sim_dt_tx_p50_ms", 0.0),
        "sim_dt_tx_p99_ms": first.check.signature.get("sim_dt_tx_p99_ms", 0.0),
    })
    return end_to_end, host, per_layer, breaches


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and the report lines."""
    workload = WORKLOADS[name]
    out_dir = OUT_ROOT / f"{name}-{os.getpid()}"
    populations = itertools.cycle([seed + r * POPULATION_STRIDE for r in range(POPULATIONS)])
    try:
        untraced = repeat(workload, populations, out_dir, PROBES[workload.kind], seconds,
                          MIN_REPEATS)
        traced = repeat(workload, itertools.repeat(seed), out_dir, None, 0,
                        TRACED_REPEATS) if trace else []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    end_to_end, host, per_layer, breaches = summarize(untraced, traced)
    attempted = sum(run.check.attempted for run in untraced + traced)
    failed = sum(run.check.failed for run in untraced + traced)

    units = {**END_TO_END, **PER_LAYER, "ops_failed_share": "ratio",
             **{metric: "s" for metric in host}}
    shown = {**end_to_end, **host, "ops_failed_share": failed / attempted, **per_layer}
    lines = [f"{name} seed {seed}: {len(untraced)} untraced repeats over "
             f"{min(len(untraced), POPULATIONS)} populations, "
             f"then {len(traced)} traced repeats of the first",
             f"{name} artifact_sha256 {untraced[0].check.signature['digest']}"]
    lines += [f"{name} {metric} {value!r} {units[metric]}"
              for metric, value in shown.items()]
    lines += [f"{name} BREACH {breach}" for breach in breaches]
    reported = per_layer if trace else end_to_end
    result = {
        "correct": not breaches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": reported[metric], "unit": units[metric]}
                    for metric in (PER_LAYER if trace else END_TO_END)},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="untraced measuring time; at least "
                             f"{MIN_REPEATS} repeats, then {TRACED_REPEATS} traced ones")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, one after the other, so each reports its own peak RSS
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                check=False).returncode
                 for name in WORKLOADS]
        return 1 if any(codes) else 0
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
