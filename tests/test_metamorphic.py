"""Exact metamorphic relations of the simulator (Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM CSUR 2018).

A run is a pure function of (config, scenario), so two runs whose inputs
differ in a known way must differ in their outputs in a known way, exactly:

* Time shift: adding a constant to every initiation and adversary time
  adds it to every event time and leaves every latency figure and every
  reject count as it was.
* Late adversary: a replay or fake-device adversary that acts after all
  honest traffic has ended leaves every chain, `timings.csv` and the
  transaction rows of `metrics.json` as they were. The worlds are lossless:
  a late replay of a transaction the trusted node never received delivers
  that transaction, as any first copy would.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from pufledger import netsim
from pufledger.harness import ScenarioConfig, build_metrics, build_world, timings_csv_lines
from pufledger.ledger import entry_to_json_line
from pufledger.netsim import Adversary

from oracles import metrics_row

SMALL = dict(n_candidates=120, n_transactions=40, n_clients=3, n_fast_clients=1)
SHIFT_MS = 777


@lru_cache(maxsize=None)
def small_world(seed, **overrides):
    return build_world(ScenarioConfig(seed=seed, **SMALL, **overrides))


def shifted(scenario, delta):
    return replace(
        scenario,
        initiations=tuple(replace(i, t_ms=i.t_ms + delta) for i in scenario.initiations),
        adversaries=tuple(replace(a, schedule=tuple(t + delta for t in a.schedule))
                          for a in scenario.adversaries),
    )


def shifted_row(row, delta):
    """A metrics.json transaction row with every time moved by delta."""
    times = ("t_init", "t_send", "t_recv_trusted", "t_validated")
    moved = {key: (value + delta if key in times and value is not None else value)
             for key, value in row.items()}
    moved["clients"] = {node: {**c, "t_recv": c["t_recv"] + delta, "t_done": c["t_done"] + delta}
                        for node, c in row["clients"].items()}
    return moved


@pytest.mark.parametrize("overrides", [
    {},
    {"drop_rate": 0.05},
    {"adversary": "replay", "adversary_events": 2, "latency_jitter_ms": 40},
], ids=["default", "lossy", "replay-jitter40"])
def test_shifting_every_time_shifts_every_event(overrides):
    built = small_world(3, **overrides)
    nodes = built.scenario.world.nodes
    base = netsim.run(built.sim_config, built.scenario)
    moved = netsim.run(built.sim_config, shifted(built.scenario, SHIFT_MS))

    assert len(moved.events) == len(base.events) > 0
    for before, after in zip(base.events, moved.events):
        # a block's t_init is in its hash, so only whether an event names a block carries over
        assert after.t_ms == before.t_ms + SHIFT_MS
        assert (after.kind, after.node, after.detail) == (before.kind, before.node, before.detail)
        assert bool(after.block_ref) == bool(before.block_ref)

    report, moved_report = build_metrics(base, nodes), build_metrics(moved, nodes)
    for figure in ("dt_sa_ms", "dt_ca_ms", "dt_tx_ms", "per_node", "accepted",
                   "rejected_by_reason", "adversarial_rejected_by_reason"):
        assert getattr(moved_report, figure) == getattr(report, figure), figure
    assert ([metrics_row(record) for record in moved_report.transactions]
            == [shifted_row(metrics_row(record), SHIFT_MS) for record in report.transactions])


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("kind", ["replay", "fake-device"])
def test_an_adversary_after_all_honest_traffic_changes_no_honest_artifact(seed, kind):
    built = small_world(seed)
    nodes = built.scenario.world.nodes
    honest = netsim.run(built.sim_config, built.scenario)
    end = honest.events[-1].t_ms
    adversary = Adversary(kind, {"tx_id": 0} if kind == "replay" else {}, (end + 1, end + 250))
    late = netsim.run(built.sim_config, replace(built.scenario, adversaries=(adversary,)))

    assert len(late.adversarial) == 2  # both injections were delivered and judged
    for node_id in built.node_ids:
        assert ([entry_to_json_line(e) for e in late.nodes[node_id].chain]
                == [entry_to_json_line(e) for e in honest.nodes[node_id].chain])
    report, late_report = build_metrics(honest, nodes), build_metrics(late, nodes)
    assert timings_csv_lines(late_report) == timings_csv_lines(report)
    assert late_report.transactions == report.transactions
