"""Safety under random small configs: loss, jitter, transaction spacing and
one adversary whose schedule falls during honest traffic; and under every
delivery order of a tiny world, with its jitter and drops from schedules.

Whatever the network does, every replica is a sound chain and a prefix of
the trusted node's chain, and every appended (device_id, seq) appears at
most once per chain, holding exactly the payload and auth tag its device
initiated. Safety is stated by content, not by the path a copy took: a
replayed copy that reaches the trusted node before its original appends the
honest block, which is safe. Liveness (every honest transaction settles, no
honest validator is penalized) is not asserted: loss and reordering break
it today.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pufledger import netsim
from pufledger.errors import EnrollmentFailedError
from pufledger.harness import ScenarioConfig, build_metrics, build_world
from pufledger.ledger import BlockData, make_auth_tag, verify
from pufledger.netsim import ADVERSARY_KINDS, Adversary, inject
from pufledger.puf import reference_response


def initiated_content(built):
    """What each honest device signed, by (device_id, seq): its BlockData and
    auth tag, derived from the scenario alone. A node's seq counts its own
    initiations from 0, and a block's t_init is its initiation time."""
    nodes = {node.node_id: node for node in built.scenario.world.nodes}
    next_seq = dict.fromkeys(nodes, 0)
    content = {}
    for init in built.scenario.initiations:
        node = nodes[init.node_id]
        data = BlockData(init.node_id, next_seq[init.node_id], init.t_ms, init.payload)
        next_seq[init.node_id] += 1
        response = reference_response(node.device, node.challenges[init.challenge_index])
        content[(data.device_id, data.seq)] = (data, make_auth_tag(data, response).h)
    return content


def assert_safe(built, result):
    """Assert safety on every replica of a run of built's initiations: each
    chain is sound and a prefix of the trusted node's, and holds each
    (device_id, seq) at most once, with exactly the content its device
    initiated. Returns the trusted node's chain."""
    content = initiated_content(built)
    trusted = result.nodes[built.node_ids[0]].chain
    for node_id, node in result.nodes.items():
        chain = node.chain
        assert verify(chain) is None, node_id
        assert chain == trusted[:len(chain)], node_id
        keys = [(entry.data.device_id, entry.data.seq) for entry in chain]
        assert len(set(keys)) == len(keys), node_id
        for key, entry in zip(keys, chain):
            assert key in content, (node_id, key)
            assert (entry.data, entry.auth_tag.h) == content[key], (node_id, key)
    return trusted


def run_and_check_safety(cfg, adversary):
    """Build cfg's world, inject the adversary (None for none), run it, and
    assert safety on every replica. Returns the run's result and the
    trusted node's chain."""
    built = build_world(cfg)
    scenario = built.scenario if adversary is None else inject(adversary, built.scenario)
    result = netsim.run(built.sim_config, scenario)
    return result, assert_safe(built, result)


@st.composite
def worlds(draw):
    """A small config, plus an adversary (or None) whose events fall while
    honest transactions are still being initiated and judged."""
    n_clients = draw(st.integers(1, 3))
    n_tx = draw(st.integers(1, 10))
    spacing = draw(st.integers(20, 300))
    cfg = ScenarioConfig(
        seed=draw(st.integers(0, 2**16)),
        n_transactions=n_tx,
        n_clients=n_clients,
        n_fast_clients=draw(st.integers(0, n_clients)),
        n_candidates=draw(st.sampled_from((40, 80))),
        tx_spacing_ms=spacing,
        drop_rate=draw(st.sampled_from((0.0, 0.0, 0.01, 0.1, 0.3))),
        latency_jitter_ms=draw(st.one_of(st.integers(0, 2), st.integers(0, 400))),
    )
    kind = draw(st.sampled_from(("none",) + ADVERSARY_KINDS))
    if kind == "none":
        return cfg, None
    if kind == "tamper":  # fires as its targets are initiated
        tx_ids = draw(st.lists(st.integers(0, n_tx - 1), min_size=1, max_size=3, unique=True))
        field = draw(st.sampled_from(netsim._TAMPER_FIELDS))
        return cfg, Adversary("tamper", {"tx_ids": tx_ids, "field": field})
    # from the start of traffic to one spacing past the last initiation
    times = draw(st.lists(st.integers(0, (n_tx + 1) * spacing), min_size=1, max_size=3))
    target = {"tx_id": draw(st.integers(0, n_tx - 1))} if kind == "replay" else {}
    return cfg, Adversary(kind, target, tuple(sorted(times)))


@given(worlds())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_no_replica_appends_content_no_device_initiated(world):
    cfg, adversary = world
    try:
        run_and_check_safety(cfg, adversary)
    except EnrollmentFailedError:
        assume(False)  # a 40-candidate device may keep no challenge at all


def test_a_replay_that_overtakes_its_original_appends_the_honest_block_once():
    # with 300 ms of jitter the replayed copy of tx 3 reaches the trusted
    # node before the honest original, and the trusted node accepts it: that
    # copy is tx 3's own block, so it is booked to tx 3, not to the adversary,
    # and the original's replay reject that follows changes nothing
    cfg = ScenarioConfig(seed=28964, n_candidates=80, n_transactions=9, n_clients=1,
                         n_fast_clients=0, latency_jitter_ms=300)
    replay = Adversary("replay", {"tx_id": 3}, (995, 1064, 1097))
    result, trusted = run_and_check_safety(cfg, replay)
    report = build_metrics(result, tuple(result.nodes.values()))
    assert report.accepted == 9
    assert "replay" not in report.rejected_by_reason
    assert report.adversarial_accepted == 0
    record = result.tx_records[3]
    # run_and_check_safety has checked its content; it is there, once
    assert [(e.data.device_id, e.data.seq) for e in trusted].count(
        (record.device_id, record.seq)) == 1


# 1 trusted node and 2 clients, transactions initiated 1 ms apart: each
# transaction is 4 sends (its origin to 2 peers, the trusted rebroadcast to 2)
TINY = ScenarioConfig(seed=7, n_clients=2, n_fast_clients=1, n_candidates=60, tx_spacing_ms=1,
                      latency_jitter_ms=400, drop_rate=0.5)


def run_schedule(built, jitter, drops):
    """Run built's scenario with its jitter and drop draws taken, in draw
    order, from these schedules in place of the generator streams."""
    sim = netsim._Sim(built.sim_config, built.scenario)
    sim.jitter, sim.drops = iter(jitter), iter(drops)
    return sim.run()


@pytest.mark.parametrize("n_tx, n_sends", [(2, 8), (3, 12)])
def test_every_delivery_order_of_a_tiny_world_is_safe(n_tx, n_sends):
    """Every early/late assignment of the sends' latencies with nothing
    dropped (2**n_sends runs), then each single drop with no jitter. Each
    send draws once from the drop schedule and, unless dropped, once from
    the jitter schedule. Liveness is not asserted: some orders penalize the
    honest validator (ROADMAP item 1)."""
    built = build_world(replace(TINY, n_transactions=n_tx))
    keep, drop = TINY.drop_rate, 0.0  # a drop draw below drop_rate drops its send
    late = TINY.latency_jitter_ms
    # a protocol that sends more or fewer messages fails here, not by running out of schedule
    result = run_schedule(built, itertools.repeat(0), itertools.repeat(keep))
    assert sum(event.kind == "deliver" for event in result.events) == n_sends
    schedules = [(jitter, [keep] * n_sends)
                 for jitter in itertools.product((0, late), repeat=n_sends)]
    schedules += [([0] * n_sends, [drop if k == dropped else keep for k in range(n_sends)])
                  for dropped in range(n_sends)]
    for jitter, drops in schedules:
        assert_safe(built, run_schedule(built, jitter, drops))
