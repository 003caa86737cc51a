"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`.

The gate must fail a run whose authentication was weakened, so that a
"speed-up" that stops checking tags cannot pass, and must pass and
reconcile an honest run of the same small scenario.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ first on sys.path)
from pufledger import consensus, ledger, registry  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = run.Workload("scenario", {"n_transactions": 20, "n_candidates": 100,
                                  "adversary": "tamper", "adversary_events": 3})


def _run_small(monkeypatch, capsys, trace: int) -> tuple[int, dict, dict]:
    monkeypatch.setitem(run.WORKLOADS, "small", SMALL)
    code = run.main(["--workload", "small", "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    shown = {parts[1]: parts[2] for parts in (line.split() for line in lines[:-1])
             if len(parts) == 4}
    return code, json.loads(lines[-1]), shown


def test_honest_small_scenario_passes_and_its_trace_reconciles(monkeypatch, capsys):
    code, result, shown = _run_small(monkeypatch, capsys, trace=1)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert float(shown["ops_failed_share"]) == 0.0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["consensus.authenticate.calls"]["value"] == 20


def test_authentication_that_accepts_any_tag_fails_the_gate(monkeypatch, capsys):
    honest = consensus.authenticate

    def accept_any_tag(trusted, block, reg, now):
        stored = registry.lookup(reg, trusted.node_id, block.data.device_id)
        retagged = replace(block, auth_tag=ledger.make_auth_tag(block.data, stored[0]))
        return honest(trusted, retagged, reg, now)

    monkeypatch.setattr(consensus, "authenticate", accept_any_tag)
    code, result, shown = _run_small(monkeypatch, capsys, trace=0)
    assert float(shown["ops_failed_share"]) > 0.0
    assert result["failed"] > 0
    assert not result["correct"]
    assert code == 1


def test_wrappers_reach_names_imported_into_other_modules():
    original = ledger.sha256
    with Tracer(("ledger.sha256",)) as tracer:
        assert consensus.sha256 is ledger.sha256 is not original
        consensus.sha256(b"")
    assert consensus.sha256 is ledger.sha256 is original
    assert tracer.stats["ledger.sha256"].calls == 1


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
