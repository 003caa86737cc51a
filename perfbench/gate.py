"""Correctness gate, determinism signature and trace reconciliation.

Every repeat of a workload is checked here. A repeat fails the gate when a
replica does not verify, when a client replica differs from the trusted
one, when an honest transaction does not settle at every client, when an
adversarial delivery is accepted, or when a calibrated device falls outside
the bands the acceptance tests (c01-c04) hold the README's calibration to.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from pufledger import ledger

# README calibration notes, as bounded by acceptance criteria c01-c04
UNIQUENESS_BAND = (47.0, 53.0)      # mean inter-device distance, %
RELIABILITY_BAND = (1.0, 5.0)       # mean intra-device distance, %
RANDOMNESS_BAND = (45.0, 55.0)      # one-bit fraction of screened responses, %
YIELD_BAND = (90 / 500, 170 / 500)  # share of candidate challenges accepted, population mean


@dataclass
class Check:
    """Outcome of checking one repeat of a workload."""

    attempted: int
    failed: int
    breaches: list[str]
    signature: dict  # must repeat exactly in every repeat, traced or not
    facts: dict = field(default_factory=dict)  # what the trace must reconcile with


def artifact_digest(files: dict[str, Path]) -> str:
    """SHA-256 over every artifact, by file name, in name order."""
    digest = hashlib.sha256()
    for path in sorted(files.values(), key=lambda p: p.name):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _breach_if_failed(check: Check, what: str) -> None:
    if check.failed:
        check.breaches.append(f"{check.failed} of {check.attempted} {what} failed")


def check_scenario(output, verified: dict[Path, Optional[int]]) -> Check:
    """Gate one `run_scenario` output; `verified` maps each chain file to
    what `ledger.verify_chain_file` returned for it.

    Tampered transactions are adversarial attempts, not honest traffic:
    `metrics.json` reports them as lost, and they must be."""
    result = output.result
    trusted_id, *client_ids = output.built.node_ids
    breaches = []
    for node_id in output.built.node_ids:
        bad = ledger.verify(result.nodes[node_id].chain)
        if bad is not None:
            breaches.append(f"replica {node_id:012x} fails ledger.verify at height {bad}")
    for path, bad in verified.items():
        if bad is not None:
            breaches.append(f"{path.name} fails verify_chain_file at height {bad}")
    trusted_bytes = output.files[f"chain_{trusted_id:012x}"].read_bytes()
    for node_id in client_ids:
        if output.files[f"chain_{node_id:012x}"].read_bytes() != trusted_bytes:
            breaches.append(f"replica {node_id:012x} differs from the trusted replica")

    tampered = {tx for adv in output.built.scenario.adversaries if adv.kind == "tamper"
                for tx in adv.target["tx_ids"]}
    honest = [r for r in result.tx_records if r.tx_id not in tampered]
    unsettled = sum(
        1 for r in honest
        if not (r.accepted and all(c in r.client_outcomes and r.client_outcomes[c].accepted
                                   for c in client_ids)))
    adversarial_accepted = sum(1 for o in result.adversarial if o.accepted)
    trusted_entries = len(result.nodes[trusted_id].chain)
    if trusted_entries != len(honest):
        breaches.append(f"trusted chain holds {trusted_entries} entries "
                        f"for {len(honest)} honest transactions")

    dt_tx = [o.t_done - r.t_init for r in honest
             for o in r.client_outcomes.values() if o.accepted]
    p50, p99 = np.percentile(dt_tx, [50, 99]) if dt_tx else (0.0, 0.0)
    judged = [e for e in result.events if e.kind in ("accept", "reject") and "hashes" in e.detail]
    check = Check(
        attempted=len(honest) + len(result.adversarial),
        failed=unsettled + adversarial_accepted,
        breaches=breaches,
        signature={
            "digest": artifact_digest(output.files),
            "events": dict(sorted(Counter(e.kind for e in result.events).items())),
            "sim_dt_tx_p50_ms": float(p50),
            "sim_dt_tx_p99_ms": float(p99),
        },
        facts={
            "settled": len(honest) - unsettled,
            "chain_entries": sum(len(result.nodes[n].chain) for n in output.built.node_ids),
            "trusted_judgments": sum(1 for e in judged if e.node == trusted_id),
            "client_judgments": sum(1 for e in judged if e.node != trusted_id),
            "event_hashes": sum(e.detail["hashes"] for e in judged),
            "stored_responses": sum(len(r.pairs) for r in output.built.records.values()),
        },
    )
    _breach_if_failed(check, "honest transactions and adversarial deliveries")
    return check


def _within(band: tuple[float, float], value: float) -> bool:
    return band[0] <= value <= band[1]


def check_fom(report: dict) -> Check:
    """Gate one `run_fom_calibration` report, device by device.

    The screening yield is checked over the population: single devices
    accept from 77 to 172 of 500 candidates across seeds, as their
    oscillator spreads differ."""
    pool_size = report["screening"]["pool_size"]
    accepted = report["screening"]["accepted_by_device"]
    failed = sum(
        1 for device in report["per_device"]
        if not (_within(UNIQUENESS_BAND, device["uniqueness_pct"])
                and _within(RELIABILITY_BAND, device["reliability_pct"])
                and _within(RANDOMNESS_BAND, device["randomness_pct"])))
    text = json.dumps(report, indent=2) + "\n"  # as `pufledger fom --out` writes it
    check = Check(
        attempted=len(accepted),
        failed=failed,
        breaches=[],
        signature={"digest": hashlib.sha256(text.encode("ascii")).hexdigest()},
        facts={"screened": pool_size * len(accepted), "screen_accepted": sum(accepted)},
    )
    _breach_if_failed(check, "calibrated devices")
    mean_yield = sum(accepted) / len(accepted) / pool_size
    if not _within(YIELD_BAND, mean_yield):
        check.breaches.append(f"mean screening yield {mean_yield:.3f} is outside {YIELD_BAND}")
    return check


def reconcile(stats: dict, facts: dict) -> list[str]:
    """Compare one traced repeat's counters with what its outputs record."""
    expected = []
    if "screened" in facts:
        expected += [
            ("fom.screen_challenge calls", stats["fom.screen_challenge"].calls, facts["screened"]),
            ("accepted screenings", stats["fom.screen_challenge"].measure,
             facts["screen_accepted"]),
        ]
    else:
        auth = stats["consensus.authenticate"]
        accept = stats["consensus.accept_validated"]
        expected += [
            ("consensus.authenticate calls", auth.calls, facts["trusted_judgments"]),
            ("consensus.accept_validated calls", accept.calls, facts["client_judgments"]),
            ("hashes_tried", auth.measure + accept.measure, facts["event_hashes"]),
            ("enrolled responses", stats["registry.enroll"].measure, facts["stored_responses"]),
            ("accepted screenings", stats["fom.screen_challenge"].measure,
             facts["stored_responses"]),
        ]
    return [f"trace counts {what} = {traced}, outputs record {recorded}"
            for what, traced, recorded in expected if traced != recorded]
