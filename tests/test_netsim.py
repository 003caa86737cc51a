import copy
import re
from dataclasses import replace

import numpy as np
import pytest

from pufledger import netsim
from pufledger.netsim import (
    Adversary,
    CostModel,
    Initiation,
    LatencyModel,
    Scenario,
    SimConfig,
    World,
    run,
    event_to_json_line,
)
from pufledger.consensus import (
    NodeState,
    initiate,
    authenticate,
    REASON_NO_MATCH,
    REASON_NOT_FROM_TRUSTED,
    REASON_REPLAY,
    REASON_UNKNOWN_DEVICE,
    ROLE_CLIENT,
    ROLE_TRUSTED,
)
from pufledger.ledger import verify
from pufledger.errors import ScenarioError
from pufledger.registry import Registry
from pufledger.harness import ScenarioConfig, build_world


@pytest.fixture()
def sim_parts(devices, enrolled):
    registry, records = enrolled
    nodes = []
    for i, device in enumerate(devices):
        role = ROLE_TRUSTED if i == 0 else ROLE_CLIENT
        record = records[device.device_id]
        nodes.append(NodeState(device.device_id, role, device, record.challenges,
                               record.responses))
    config = SimConfig(
        seed=9,
        latency=LatencyModel(4, 2),
        drop_rate=0.0,
        costs={device.device_id: CostModel(6.0, 1.0, 50.0, 3.0) for device in devices},
    )
    world = World(nodes=tuple(nodes), registry=registry)
    return config, world


def make_initiations(world, count, spacing=200):
    clients = [n.node_id for n in world.nodes[1:]]
    rng = np.random.default_rng(55)
    out = []
    per_client = {}
    for k in range(count):
        node_id = clients[k % len(clients)]
        used = per_client.get(node_id, 0)
        out.append(Initiation(
            t_ms=(k + 1) * spacing,
            node_id=node_id,
            payload=bytes(rng.bytes(6)),
            challenge_index=used % 10,
        ))
        per_client[node_id] = used + 1
    return tuple(out)


@pytest.mark.parametrize("jitter", [0, 1, 2, 3, 150, 999, 2**31 - 1, 2**31])
def test_chunked_latency_draws_are_the_scalar_draws(sim_parts, jitter):
    config, world = sim_parts
    config = replace(config, latency=LatencyModel(4, jitter))
    sim = netsim._Sim(config, Scenario(world=world, initiations=()))
    scalar = np.random.default_rng([config.seed, netsim._STREAM_LATENCY])
    for _ in range(3 * netsim._LATENCY_CHUNK + 5):
        expected = 4 + (int(scalar.integers(0, jitter + 1)) if jitter else 0)
        assert sim.latency() == expected


def test_chunked_drop_draws_are_the_scalar_draws(sim_parts):
    config, world = sim_parts
    sim = netsim._Sim(replace(config, drop_rate=0.05), Scenario(world=world, initiations=()))
    scalar = np.random.default_rng([config.seed, netsim._STREAM_DROP])
    for _ in range(3 * netsim._LATENCY_CHUNK + 5):
        assert next(sim.drops) == float(scalar.random())


def test_chunked_cost_draws_are_the_scalar_draws(sim_parts):
    # nodes with different (mean, sd) share one cost stream, so a chunk drawn
    # with one node's parameters would be wrong for the others; sd == 0 draws nothing
    config, world = sim_parts
    params = [(6.0, 1.0, 50.0, 3.0), (0.0, 2.0**31, 7.0, 0.0), (1e9, 1e6, 120.03, 3.44),
              (3.0, 0.0, 72.27, 18.07), (2.0**40, 2.0**20, 0.0, 0.0), (46.5, 2.66, 0.5, 0.0)]
    costs = {node.node_id: CostModel(*p) for node, p in zip(world.nodes, params)}
    sim = netsim._Sim(replace(config, costs=costs), Scenario(world=world, initiations=()))
    scalar = np.random.default_rng([config.seed, netsim._STREAM_COST])
    calls = np.random.default_rng(3)
    draws = 0
    while draws <= 4 * netsim._LATENCY_CHUNK:
        node_id = world.nodes[int(calls.integers(len(world.nodes)))].node_id
        which = ("init", "handle")[int(calls.integers(2))]
        model = costs[node_id]
        mean, sd = ((model.init_mean_ms, model.init_sd_ms) if which == "init"
                    else (model.handle_mean_ms, model.handle_sd_ms))
        value = scalar.normal(mean, sd) if sd else mean
        draws += sd > 0
        assert sim.cost(node_id, which) == max(0, int(round(value)))
    # before rounding too: mean + sd * z is the scalar normal(mean, sd), bit for bit
    z = np.random.default_rng(7).standard_normal(1000).tolist()
    for mean, sd in {(p[k], p[k + 1]) for p in params for k in (0, 2) if p[k + 1]}:
        scalar = np.random.default_rng(7)
        assert [mean + sd * v for v in z] == [float(scalar.normal(mean, sd)) for _ in z]


def test_empty_scenario_runs(sim_parts):
    config, world = sim_parts
    result = run(config, Scenario(world=world, initiations=()))
    assert result.events == ()
    assert result.tx_records == ()


def test_all_transactions_replicate(sim_parts):
    config, world = sim_parts
    result = run(config, Scenario(world=world, initiations=make_initiations(world, 10)))
    assert all(r.accepted for r in result.tx_records)
    tips = {node.chain[-1].entry_hash for node in result.nodes.values()}
    assert len(tips) == 1
    for node in result.nodes.values():
        assert len(node.chain) == 10
        assert verify(node.chain) is None
    # every client replicated every transaction
    for record in result.tx_records:
        assert len(record.client_outcomes) == 5
        assert all(o.accepted for o in record.client_outcomes.values())


def test_simulation_matches_sequential_consensus_oracle(sim_parts, enrolled):
    # the network layer may delay blocks but must not change what gets
    # accepted: a direct replay of the same initiations through the
    # consensus calls yields the same entries in the same order
    config, world = sim_parts
    registry, records = enrolled
    initiations = make_initiations(world, 12)
    result = run(config, Scenario(world=world, initiations=initiations))

    replica = {n.node_id: copy.deepcopy(n) for n in world.nodes}
    trusted = replica[world.nodes[0].node_id]
    expected = []
    for init in sorted(initiations, key=lambda i: i.t_ms):
        block = initiate(replica[init.node_id], init.payload,
                         init.challenge_index, now=init.t_ms)
        outcome = authenticate(trusted, block, registry, now=init.t_ms)
        assert outcome.accepted
        expected.append((block.data, block.auth_tag))

    simulated_chain = result.nodes[trusted.node_id].chain
    got = [(e.data, e.auth_tag) for e in simulated_chain]
    assert got == expected


def test_identical_runs_are_identical(sim_parts):
    config, world = sim_parts
    scenario = Scenario(world=world, initiations=make_initiations(world, 8))
    first = run(config, scenario)
    second = run(config, scenario)
    assert [event_to_json_line(e) for e in first.events] == \
           [event_to_json_line(e) for e in second.events]
    assert first.tx_records == second.tx_records
    chains_a = {i: n.chain for i, n in first.nodes.items()}
    chains_b = {i: n.chain for i, n in second.nodes.items()}
    assert chains_a == chains_b


def test_runs_leave_the_world_untouched(sim_parts):
    # a run copies only what it mutates; the forged validations demote the
    # trusted node, which must not reach the world's nodes or the next run
    config, world = sim_parts
    roles = [node.role for node in world.nodes]
    scenario = Scenario(world=world, initiations=make_initiations(world, 4),
                        adversaries=(Adversary("forge-validator", {}, (2000, 2400, 2800)),))
    first = run(config, scenario)
    second = run(config, scenario)
    assert any(e.kind == "demote" for e in first.events)
    assert [event_to_json_line(e) for e in first.events] == \
           [event_to_json_line(e) for e in second.events]
    assert first.tx_records == second.tx_records and first.adversarial == second.adversarial
    assert first.nodes == second.nodes
    assert all(first.nodes[n.node_id] is not n for n in world.nodes)
    for node, role in zip(world.nodes, roles):
        assert node.role == role
        assert node.chain == [] and node.next_seq == 0 and node.trust_value == 0
        assert node.last_seq_accepted == {}


def test_seed_changes_the_timeline(sim_parts):
    config, world = sim_parts
    scenario = Scenario(world=world, initiations=make_initiations(world, 8))
    other = run(replace(config, seed=10), scenario)
    base = run(config, scenario)
    assert [e.t_ms for e in base.events] != [e.t_ms for e in other.events]


def test_timestamps_are_causally_ordered(sim_parts):
    config, world = sim_parts
    result = run(config, Scenario(world=world, initiations=make_initiations(world, 10)))
    times = [e.t_ms for e in result.events]
    assert times == sorted(times)
    for record in result.tx_records:
        assert record.t_init <= record.t_send
        # wire latency is base 4 plus jitter up to 2
        assert 4 <= record.t_recv_trusted - record.t_send <= 6
        assert record.t_recv_trusted <= record.t_validated
        for outcome in record.client_outcomes.values():
            assert 4 <= outcome.t_recv - record.t_validated <= 6
            assert outcome.t_recv <= outcome.t_done


def test_node_busy_queue_serializes_work(sim_parts):
    # two initiations land on the trusted node back to back; the second
    # judgment cannot start before the first ends
    config, world = sim_parts
    initiations = (
        Initiation(100, world.nodes[1].node_id, b"a", 0),
        Initiation(101, world.nodes[2].node_id, b"b", 0),
    )
    result = run(config, Scenario(world=world, initiations=initiations))
    first, second = result.tx_records
    assert second.t_validated >= first.t_validated + 40  # handle cost ~50 each


def test_drops_lose_transactions(sim_parts):
    config, world = sim_parts
    config = replace(config, drop_rate=0.9)
    result = run(config, Scenario(world=world, initiations=make_initiations(world, 10)))
    lost = [r for r in result.tx_records if r.accepted is None]
    assert lost, "with 90% drop some origin blocks must vanish"
    assert any(e.kind == "lose" for e in result.events)
    for record in lost:
        assert record.t_recv_trusted is None
        assert record.client_outcomes == {}


def test_drop_rate_validation(sim_parts):
    config, _ = sim_parts
    with pytest.raises(ValueError):
        replace(config, drop_rate=1.0)
    with pytest.raises(ValueError):
        replace(config, drop_rate=-0.1)


# --- adversaries -----------------------------------------------------------------

def test_tamper_adversary_is_always_rejected(sim_parts):
    config, world = sim_parts
    initiations = make_initiations(world, 9)
    scenario = Scenario(world=world, initiations=initiations, adversaries=(
        Adversary("tamper", {"tx_ids": [0, 4], "field": "payload"}),
        Adversary("tamper", {"tx_ids": [2], "field": "auth_tag"}),
        Adversary("tamper", {"tx_ids": [6], "field": "device_id"})))
    result = run(config, scenario)

    assert not any(o.accepted for o in result.adversarial)
    by_role = {}
    for o in result.adversarial:
        assert o.kind == "tamper"
        role = ROLE_TRUSTED if o.receiver == world.registry.trusted_id else ROLE_CLIENT
        by_role.setdefault(role, []).append(o.reason)
    assert set(by_role[ROLE_TRUSTED]) <= {REASON_NO_MATCH, REASON_UNKNOWN_DEVICE}
    assert set(by_role[ROLE_CLIENT]) == {REASON_NOT_FROM_TRUSTED}
    # four tampered messages reach the trusted node, each judged once
    assert len(by_role[ROLE_TRUSTED]) == 4
    # untouched transactions still make it through
    untouched = [r for r in result.tx_records if r.tx_id not in (0, 2, 4, 6)]
    assert untouched and all(r.accepted for r in untouched)
    tampered = [r for r in result.tx_records if r.tx_id in (0, 2, 4, 6)]
    assert all(r.accepted is None for r in tampered)


def test_replay_adversary_is_rejected_or_noop(sim_parts):
    config, world = sim_parts
    initiations = make_initiations(world, 4)
    # one attempt before the victim transaction exists, two after it settled
    scenario = Scenario(world=world, initiations=initiations,
                        adversaries=(Adversary("replay", {"tx_id": 1}, (50, 3000, 3200)),))
    result = run(config, scenario)
    assert all(r.accepted for r in result.tx_records)
    replays = [o for o in result.adversarial if o.kind == "replay"]
    assert len(replays) == 2
    for o in replays:
        assert not o.accepted
        assert o.reason == REASON_REPLAY
        assert o.receiver == world.registry.trusted_id
    assert any(e.kind == "inject-noop" for e in result.events)


def test_fake_device_adversary_is_unknown(sim_parts):
    config, world = sim_parts
    scenario = Scenario(world=world, initiations=make_initiations(world, 2),
                        adversaries=(Adversary("fake-device", {}, (1500, 1700, 1900)),))
    result = run(config, scenario)
    fakes = [o for o in result.adversarial if o.kind == "fake-device"]
    assert len(fakes) == 3
    for o in fakes:
        assert not o.accepted
        assert o.reason == REASON_UNKNOWN_DEVICE


def test_forged_validator_blocks_never_stick(sim_parts):
    config, world = sim_parts
    schedule = (2000, 2400, 2800, 3200)
    scenario = Scenario(world=world, initiations=make_initiations(world, 3),
                        adversaries=(Adversary("forge-validator", {}, schedule),))
    result = run(config, scenario)

    forged = [o for o in result.adversarial if o.kind == "forge-validator"]
    assert forged and not any(o.accepted for o in forged)
    # the first volley is inspected bit by bit and misses every stored
    # response; the resulting penalties demote the impersonated node, and
    # every later volley dies at the header check
    reasons = [o.reason for o in forged]
    n_clients = 5
    assert reasons[:n_clients] == [REASON_NO_MATCH] * n_clients
    assert set(reasons[n_clients:]) == {REASON_NOT_FROM_TRUSTED}
    assert any(e.kind == "demote" for e in result.events)
    demoted_id = world.nodes[0].node_id
    assert result.nodes[demoted_id].role == ROLE_CLIENT
    # honest chains untouched by the forgeries
    for r in result.tx_records:
        assert r.accepted
    assert all(len(result.nodes[n.node_id].chain) == 3 for n in world.nodes)


def test_a_block_queued_at_a_validator_demoted_before_judging_it_stays_lost():
    # one block every 20 ms against about 120 ms of work per block: blocks
    # wait in the trusted node's queue, and the forged validations demote it
    # while they wait
    cfg = ScenarioConfig(n_candidates=100, n_transactions=40, n_clients=3,
                         n_fast_clients=1, tx_spacing_ms=20)
    built = build_world(cfg)
    scenario = replace(built.scenario,
                       adversaries=(Adversary("forge-validator", {}, (300, 310, 320)),))
    result = run(built.sim_config, scenario)
    trusted_id = built.node_ids[0]
    (demoted_at,) = [e.t_ms for e in result.events if e.kind == "demote"]
    assert demoted_at == 417
    delivered_at = {e.detail["msg"]: e.t_ms for e in result.events
                    if e.kind == "deliver" and e.node == trusted_id}
    queued = [e for e in result.events if e.kind == "reject" and e.node == trusted_id
              and delivered_at[e.detail["msg"]] < demoted_at]
    assert queued
    for event in queued:
        # judged with no validation work: no hashes tried, nothing recorded
        assert event.t_ms > demoted_at
        assert event.detail == {"msg": event.detail["msg"], "tx": event.detail["tx"],
                                "reason": REASON_NOT_FROM_TRUSTED, "adv": "normal"}
        record = result.tx_records[event.detail["tx"]]
        assert (record.accepted, record.reason, record.t_recv_trusted) == (None, None, None)


def test_demotion_threshold_can_be_disabled(sim_parts):
    config, world = sim_parts
    config = replace(config, demotion_threshold=0)
    scenario = Scenario(world=world, initiations=make_initiations(world, 2),
                        adversaries=(Adversary("forge-validator", {}, (1500, 2500)),))
    result = run(config, scenario)
    forged = [o for o in result.adversarial if o.kind == "forge-validator"]
    assert all(o.reason == REASON_NO_MATCH for o in forged)
    assert not any(e.kind == "demote" for e in result.events)
    assert result.nodes[world.nodes[0].node_id].role == ROLE_TRUSTED


def test_trust_values_track_accepts_and_penalties(sim_parts):
    config, world = sim_parts
    scenario = Scenario(world=world, initiations=make_initiations(world, 6),
                        adversaries=(Adversary("forge-validator", {}, (3000,)),))
    result = run(config, scenario)
    trusted = result.nodes[world.nodes[0].node_id]
    # six accepted blocks, five clients each catching one forged tag
    assert trusted.trust_value == 6 - 5


# --- adversary and scenario validation ------------------------------------------------

def test_adversaries_and_scenarios_refuse_unknown_settings(sim_parts):
    _, world = sim_parts
    initiations = make_initiations(world, 2)
    with pytest.raises(ScenarioError, match="^unknown adversary kind 'meddle'$"):
        Adversary("meddle", {}, (100,))
    with pytest.raises(ScenarioError, match="^tamper target needs valid tx_ids$"):
        Scenario(world, initiations, (Adversary("tamper", {"tx_ids": [99]}, ()),))
    with pytest.raises(ScenarioError, match=r"^tamper field must be one of \("):
        Adversary("tamper", {"tx_ids": [0], "field": "entry_hash"}, ())
    # a schedule the event loop would push and the tamper would never act on
    with pytest.raises(ScenarioError, match="^tamper takes no schedule$"):
        Adversary("tamper", {"tx_ids": [0]}, (100, 5000))
    for kind, target in [("replay", {"tx_id": 0}), ("fake-device", {}), ("forge-validator", {})]:
        with pytest.raises(ScenarioError, match=f"^{kind} needs at least one scheduled time$"):
            Adversary(kind, target, ())
    with pytest.raises(ScenarioError, match="^adversary event times must be >= 0$"):
        Adversary("fake-device", {}, (100, -1))
    late = (replace(initiations[0], t_ms=-1),) + initiations[1:]
    with pytest.raises(ScenarioError, match="^initiation times must be >= 0$"):
        Scenario(world, late)


@pytest.mark.parametrize("kind, target, schedule, keys", [
    ("tamper", {"tx_ids": [0], "feild": "auth_tag"}, (), "('tx_ids', 'field')"),
    ("fake-device", {"tx_id": 1, "device_id": 5}, (100,), "()"),
    ("forge-validator", {"validator": 3}, (100,), "()"),
], ids=["tamper-feild", "fake-device-tx_id", "forge-validator-validator"])
def test_each_kind_refuses_a_target_key_it_does_not_read(kind, target, schedule, keys):
    # a misspelled or foreign key would otherwise be ignored and run another attack
    message = f"{kind} reads only target keys {keys}, got {list(target)}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        Adversary(kind, target, schedule)


@pytest.mark.parametrize("make, message", [
    (lambda: Adversary("replay", {}, (100,)), "replay target needs a valid tx_id"),
    (lambda: Adversary("replay", {"tx_id": 2}, (100,)), "replay target needs a valid tx_id"),
    (lambda: Adversary("fake-device", {}), "fake-device needs at least one scheduled time"),
    (lambda: Adversary("fake-device", {}, (-5,)), "adversary event times must be >= 0"),
], ids=["replay-no-tx_id", "replay-past-last-tx", "fake-device-no-schedule", "negative-time"])
def test_a_directly_built_scenario_refuses_a_bad_adversary_before_any_event(
        sim_parts, monkeypatch, make, message):
    config, world = sim_parts
    monkeypatch.setattr(netsim, "_Sim", None)  # no run may start
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        run(config, Scenario(world, make_initiations(world, 2), (make(),)))


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_cost_model_rejects_negative_and_non_finite_values(index, value):
    values = [6.0, 1.0, 50.0, 3.0]
    values[index] = value
    with pytest.raises(ScenarioError):
        CostModel(*values)


def test_adversary_rejects_unknown_kind():
    with pytest.raises(ScenarioError, match="unknown adversary kind"):
        Adversary("meddle", {}, (5,))


def test_run_rejects_costs_that_do_not_match_the_world(sim_parts):
    config, world = sim_parts
    scenario = Scenario(world=world, initiations=())
    ids = list(config.costs)
    missing = {node_id: config.costs[node_id] for node_id in ids[1:]}
    extra = {**config.costs, max(ids) + 1: config.costs[ids[0]]}
    for costs in (missing, extra):
        with pytest.raises(ScenarioError, match="disagree on node ids"):
            run(replace(config, costs=costs), scenario)


def test_run_rejects_a_world_without_a_trusted_node(sim_parts, monkeypatch):
    # nor one with two, one the registry does not name, or one not enrolled
    config, world = sim_parts
    first, second, *rest = world.nodes
    as_client, as_trusted = replace(first, role=ROLE_CLIENT), replace(second, role=ROLE_TRUSTED)
    worlds = (
        replace(world, nodes=(as_client, replace(second, role=ROLE_CLIENT), *rest)),
        replace(world, nodes=(first, as_trusted, *rest)),
        replace(world, nodes=(as_client, as_trusted, *rest)),
        replace(world, registry=Registry(first.node_id)),
    )
    monkeypatch.setattr(netsim._Sim, "log", lambda *args: pytest.fail("an event was logged"))
    for bad in worlds:
        scenario = Scenario(world=bad, initiations=make_initiations(world, 3))
        with pytest.raises(ScenarioError, match="trusted node"):
            run(config, scenario)


def test_run_rejects_a_world_with_an_unenrolled_client(sim_parts, monkeypatch):
    # the trusted node tags each validation with its receiver's stored response
    config, world = sim_parts
    *enrolled_nodes, last = world.nodes
    stranger = replace(last, node_id=0xFFFFFFFFFFFF)
    costs = {stranger.node_id if n == last.node_id else n: c for n, c in config.costs.items()}
    bad = replace(world, nodes=(*enrolled_nodes, stranger))
    monkeypatch.setattr(netsim._Sim, "log", lambda *args: pytest.fail("an event was logged"))
    with pytest.raises(ScenarioError, match="node ffffffffffff is not enrolled"):
        run(replace(config, costs=costs), Scenario(world=bad, initiations=make_initiations(bad, 3)))


def test_demotion_threshold_must_not_be_negative(sim_parts):
    config, _ = sim_parts
    with pytest.raises(ScenarioError, match="demotion_threshold"):
        replace(config, demotion_threshold=-1)


@pytest.mark.parametrize("drop_rate", [0.0, 0.1])
def test_a_run_names_each_entry_and_each_sender_by_one_string(drop_rate):
    built = build_world(ScenarioConfig(seed=42, drop_rate=drop_rate))
    result = run(built.sim_config, built.scenario)
    height = {}  # (node, tx) -> height of its accept
    senders = {}  # sender name -> ids of its string objects
    for event in result.events:
        if event.kind == "accept":
            height[event.node, event.detail["tx"]] = event.detail["height"]
        if event.kind in ("accept", "rebroadcast"):
            entry = result.nodes[event.node].chain[height[event.node, event.detail["tx"]]]
            assert event.block_ref is entry.hash_hex == entry.entry_hash.hex()
        elif event.kind in ("deliver", "lose"):
            senders.setdefault(event.detail["from"], set()).add(id(event.detail["from"]))
    assert len(senders) == len(built.node_ids)
    assert all(len(ids) == 1 for ids in senders.values())
    assert any(event.kind == "lose" for event in result.events) == (drop_rate > 0)
