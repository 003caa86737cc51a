import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from pufledger import consensus
from pufledger.ledger import AuthTag, BlockData, make_auth_tag, make_entry, tip_hash
from pufledger.consensus import (
    NodeState,
    WireBlock,
    accept_validated,
    admits,
    authenticate,
    initiate,
    judge,
    penalize,
    pow_mine_baseline,
    REASON_NO_MATCH,
    REASON_NOT_FROM_TRUSTED,
    REASON_REPLAY,
    REASON_UNKNOWN_DEVICE,
    ROLE_CLIENT,
    ROLE_TRUSTED,
)
from pufledger.puf import reference_response
from oracles import leading_zero_bits, wire_to_json


def peers(nodes, node):
    return [other.node_id for other in nodes if other.node_id != node.node_id]


def pipeline(registry, nodes, payload=b"demo", challenge_index=0, now=100):
    """initiate at a client, judge at the trusted node: an accept carries
    one rebroadcast per peer."""
    trusted, client = nodes[0], nodes[1]
    block = initiate(client, payload, challenge_index, now=now)
    return block, judge(trusted, block, registry, peers(nodes, trusted), now=now + 50)


def sent_to(result, node):
    """The rebroadcast a trusted node's verdict sends to node."""
    return dict(result.rebroadcast)[node.node_id]


# --- initiate -------------------------------------------------------------------

def test_initiate_builds_tag_from_enrolled_response(fresh_nodes, enrolled):
    registry, nodes = fresh_nodes
    _, records = enrolled
    client = nodes[2]
    block = initiate(client, b"hello", 3, now=7)
    record = records[client.node_id]
    expected = make_auth_tag(block.data, record.responses[3])
    assert block.auth_tag == expected
    assert block.data.device_id == client.node_id
    assert block.data.t_init == 7
    assert not block.is_validated


def test_initiate_advances_sequence(fresh_nodes):
    _, nodes = fresh_nodes
    client = nodes[1]
    first = initiate(client, b"", 0, now=1)
    second = initiate(client, b"", 0, now=2)
    assert (first.data.seq, second.data.seq) == (0, 1)
    assert client.next_seq == 2


def test_initiate_rejects_bad_challenge_index(fresh_nodes):
    _, nodes = fresh_nodes
    with pytest.raises(ValueError):
        initiate(nodes[1], b"", len(nodes[1].challenges), now=0)


def test_a_rejected_challenge_index_leaves_next_seq_alone(fresh_nodes):
    """An index that is no valid one raises before the sequence advances, so
    the device's next block takes the number the rejected one would have."""
    _, nodes = fresh_nodes
    client = nodes[1]
    initiate(client, b"first", 0, now=0)
    for bad in (np.int64(0), True, -1, len(client.challenges), 1.0, "0"):
        with pytest.raises(ValueError):
            initiate(client, b"x", bad, now=1)
        assert client.next_seq == 1, bad
    # WireBlock's rule, checked before the device is read: the error names the index
    for bad in (True, 1.0, "0"):
        with pytest.raises(ValueError, match=re.escape(f"non-negative int, got {bad!r}")):
            initiate(client, b"x", bad, now=1)
    assert initiate(client, b"next", 0, now=2).data.seq == 1


def test_wire_blocks_never_carry_response_bytes(fresh_nodes, enrolled):
    registry, nodes = fresh_nodes
    _, records = enrolled
    client = nodes[1]
    block, result = pipeline(registry, nodes)
    assert result.accepted
    texts = [wire_to_json(b) for b in (block, *(rb for _, rb in result.rebroadcast))]
    for record in records.values():
        for response in record.responses:
            for text in texts:
                assert response.hex() not in text
                assert response.packed() not in text.encode()


def test_wire_json_round_trip(fresh_nodes):
    # wire JSON spells every field of a block and nothing else, so the
    # block can be rebuilt from it
    registry, nodes = fresh_nodes
    block, result = pipeline(registry, nodes)
    for original in (block, sent_to(result, nodes[2])):
        obj = json.loads(wire_to_json(original))
        data = BlockData(int(obj.pop("device_id"), 16), obj.pop("seq"), obj.pop("t_init"),
                         bytes.fromhex(obj.pop("payload")))
        auth_tag = AuthTag(bytes.fromhex(obj.pop("auth_tag")))
        challenge_index = obj.pop("challenge_index")
        validation = {}
        if original.is_validated:
            validation = dict(validated_by=int(obj.pop("validated_by"), 16),
                              t_validated=obj.pop("t_validated"),
                              validation_tag=bytes.fromhex(obj.pop("validation_tag")))
        assert obj == {}
        assert WireBlock(data, auth_tag, challenge_index, **validation) == original


def test_wire_block_validation_trio_is_all_or_none(fresh_nodes):
    registry, nodes = fresh_nodes
    block, _ = pipeline(registry, nodes)
    with pytest.raises(ValueError):
        WireBlock(data=block.data, auth_tag=block.auth_tag, challenge_index=0,
                  validated_by=nodes[0].node_id)


def test_wire_block_requires_a_non_negative_int_challenge_index(fresh_nodes):
    registry, nodes = fresh_nodes
    block, result = pipeline(registry, nodes, challenge_index=2)
    assert {rb.challenge_index for _, rb in result.rebroadcast} == {block.challenge_index} == {2}
    with pytest.raises(TypeError):
        WireBlock(data=block.data, auth_tag=block.auth_tag)
    for bad in (-1, True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="challenge_index"):
            WireBlock(data=block.data, auth_tag=block.auth_tag, challenge_index=bad)


# --- authenticate ----------------------------------------------------------------

def test_authenticate_accepts_and_appends(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted = nodes[0]
    block, result = pipeline(registry, nodes)
    assert result.accepted and result.reason is None
    assert len(trusted.chain) == 1
    entry = trusted.chain[0]
    assert entry is result.entry
    assert entry.height == 0
    assert entry.data == block.data
    assert entry.trusted_node_id == trusted.node_id
    assert entry.t_validated == 150
    assert trusted.trust_value == 1


def test_each_rebroadcast_tag_is_keyed_by_its_receivers_response(fresh_nodes):
    """One block per peer, in peer order, each tagged with that peer's own
    response at index height % len, which the peer's device re-derives."""
    registry, nodes = fresh_nodes
    trusted = nodes[0]
    _, result = pipeline(registry, nodes)
    assert authenticate(replace(trusted, chain=[], last_seq_accepted={}),
                        initiate(replace(nodes[1], next_seq=0), b"demo", 0, now=100),
                        registry, now=150).rebroadcast is None  # judge adds them
    assert [peer for peer, _ in result.rebroadcast] == peers(nodes, trusted)
    for receiver, (_, rb) in zip(nodes[1:], result.rebroadcast):
        assert rb.validated_by == trusted.node_id
        assert rb.t_validated == 150
        pick = result.entry.height % len(receiver.challenges)
        own = reference_response(receiver.device, receiver.challenges[pick])
        expected = hashlib.sha256(result.entry.entry_hash + own.packed()).digest()
        assert rb.validation_tag == expected
    assert len({rb.validation_tag for _, rb in result.rebroadcast}) == len(nodes) - 1


def test_authenticate_hashes_once_at_the_named_index(fresh_nodes, enrolled):
    registry, nodes = fresh_nodes
    _, records = enrolled
    trusted, client = nodes[0], nodes[1]
    k = len(records[client.node_id].responses) - 1  # the last: a scan would have tried them all
    block = initiate(client, b"x", k, now=1)
    result = authenticate(trusted, block, registry, now=2)
    assert result.accepted
    assert result.hashes_tried == 1


def test_authenticate_matches_the_one_index_oracle(fresh_nodes, enrolled):
    """Accept iff the tag is make_auth_tag(data, stored[index]); an index
    past the stored responses tries no hash, any other no-match one."""
    registry, nodes = fresh_nodes
    _, records = enrolled
    trusted, client = nodes[0], nodes[1]
    stored = records[client.node_id].responses
    rng = np.random.default_rng(31)
    seen = set()
    for trial in range(40):
        data = BlockData(device_id=client.node_id, seq=trial, t_init=trial,
                         payload=bytes(rng.bytes(8)))
        index = int(rng.integers(0, len(stored) + 3))  # sometimes out of range
        signer = int(rng.integers(0, len(stored)))
        if trial % 4 == 0:
            tag = make_auth_tag(data, stored[index % len(stored)])
        elif trial % 4 == 1:
            tag = AuthTag(bytes(rng.bytes(32)))
        elif trial % 4 == 2:
            tag = make_auth_tag(data, stored[signer])  # the right tag for another index
        else:
            wrong_data = BlockData(device_id=client.node_id, seq=trial,
                                   t_init=trial, payload=b"tampered")
            tag = make_auth_tag(wrong_data, stored[index % len(stored)])
        in_range = index < len(stored)
        expected = in_range and make_auth_tag(data, stored[index]) == tag
        result = authenticate(trusted, WireBlock(data, tag, index), registry, now=trial)
        assert result.accepted == expected
        assert result.hashes_tried == int(in_range)
        if not expected:
            assert result.reason == REASON_NO_MATCH
        seen.add((result.accepted, result.hashes_tried))
    assert seen == {(True, 1), (False, 1), (False, 0)}


@pytest.mark.parametrize("shift", [1, "past"])
def test_authenticate_rejects_a_wrong_index_without_changing_state(fresh_nodes, enrolled, shift):
    """A right tag under another index is a no-match after one hash; an
    index past the stored responses is one after none. Either way the
    block stays new, so the same block with its own index is accepted."""
    registry, nodes = fresh_nodes
    _, records = enrolled
    trusted, client = nodes[0], nodes[1]
    n_stored = len(records[client.node_id].responses)
    block = initiate(client, b"moved", 3, now=1)
    wrong = replace(block, challenge_index=n_stored if shift == "past" else 3 + shift)
    result = authenticate(trusted, wrong, registry, now=2)
    assert not result.accepted
    assert result.reason == REASON_NO_MATCH
    assert result.hashes_tried == (0 if shift == "past" else 1)
    assert trusted.chain == [] and trusted.trust_value == 0 and trusted.last_seq_accepted == {}
    assert authenticate(trusted, block, registry, now=3).accepted


def test_authenticate_rejects_replayed_sequence(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted, client = nodes[0], nodes[1]
    block = initiate(client, b"once", 0, now=1)
    assert authenticate(trusted, block, registry, now=2).accepted
    replayed = authenticate(trusted, block, registry, now=3)
    assert not replayed.accepted
    assert replayed.reason == REASON_REPLAY
    assert replayed.hashes_tried == 1
    assert len(trusted.chain) == 1


def test_authenticate_rejects_unknown_device(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted = nodes[0]
    data = BlockData(device_id=0xFFFFFFFFFFFF, seq=0, t_init=0)
    block = WireBlock(data=data, auth_tag=AuthTag(b"\x11" * 32), challenge_index=0)
    result = authenticate(trusted, block, registry, now=0)
    assert not result.accepted
    assert result.reason == REASON_UNKNOWN_DEVICE
    assert result.hashes_tried == 0


def test_authenticate_requires_trusted_role_and_origin_block(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted, client = nodes[0], nodes[1]
    block, result = pipeline(registry, nodes)
    with pytest.raises(ValueError):
        authenticate(client, block, registry, now=0)
    with pytest.raises(ValueError):
        authenticate(trusted, sent_to(result, client), registry, now=0)


def test_judging_appends_to_the_same_list(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted, client = nodes[0], nodes[2]
    trusted_chain, client_chain = trusted.chain, client.chain
    _, result = pipeline(registry, nodes)
    assert accept_validated(client, sent_to(result, client), trusted.node_id).accepted
    assert trusted.chain is trusted_chain and client.chain is client_chain
    assert trusted_chain == client_chain == [result.entry]


# --- accept_validated ---------------------------------------------------------------

def test_clients_replicate_the_exact_entry(fresh_nodes, enrolled):
    registry, nodes = fresh_nodes
    trusted = nodes[0]
    _, result = pipeline(registry, nodes)
    for client in nodes[1:]:
        outcome = accept_validated(client, sent_to(result, client), trusted.node_id)
        assert outcome.accepted
        assert outcome.entry == result.entry
        assert client.chain[-1] == trusted.chain[-1]


def test_accept_rejects_unvalidated_block(fresh_nodes):
    registry, nodes = fresh_nodes
    block, _ = pipeline(registry, nodes)
    outcome = accept_validated(nodes[2], block, nodes[0].node_id)
    assert not outcome.accepted
    assert outcome.reason == REASON_NOT_FROM_TRUSTED


def test_accept_rejects_untrusted_validator(fresh_nodes):
    registry, nodes = fresh_nodes
    impostor = nodes[3]
    block, result = pipeline(registry, nodes)
    rb = sent_to(result, nodes[2])
    forged = replace(rb, validated_by=impostor.node_id)
    outcome = accept_validated(nodes[2], forged, nodes[0].node_id)
    assert not outcome.accepted
    assert outcome.reason == REASON_NOT_FROM_TRUSTED


def test_accept_rejects_wrong_validation_tag(fresh_nodes):
    registry, nodes = fresh_nodes
    block, result = pipeline(registry, nodes)
    rb = sent_to(result, nodes[2])
    forged = replace(rb, validation_tag=b"\x42" * 32)
    outcome = accept_validated(nodes[2], forged, nodes[0].node_id)
    assert not outcome.accepted
    assert outcome.reason == REASON_NO_MATCH
    assert outcome.hashes_tried == 1


def test_accept_rejects_tag_made_with_another_stored_response(fresh_nodes):
    """The validator tags height 0 for a client with the client's stored
    response 0; a tag made with any other of its responses, or the tag made
    for another client, is not the one it used."""
    registry, nodes = fresh_nodes
    trusted_id, client = nodes[0].node_id, nodes[2]
    _, result = pipeline(registry, nodes)
    rb = sent_to(result, client)
    assert rb.validated_by == trusted_id
    assert result.entry.height % len(client.responses) == 0
    other = hashlib.sha256(result.entry.entry_hash + client.responses[1].packed()).digest()
    for forged in (replace(rb, validation_tag=other), sent_to(result, nodes[3])):
        outcome = accept_validated(client, forged, trusted_id)
        assert not outcome.accepted
        assert outcome.reason == REASON_NO_MATCH
        assert outcome.hashes_tried == 1
        assert client.chain == []


def test_accept_rejects_replay(fresh_nodes):
    registry, nodes = fresh_nodes
    _, result = pipeline(registry, nodes)
    client = nodes[2]
    assert accept_validated(client, sent_to(result, client), nodes[0].node_id).accepted
    again = accept_validated(client, sent_to(result, client), nodes[0].node_id)
    assert not again.accepted
    assert again.reason == REASON_REPLAY
    assert len(client.chain) == 1


def test_accept_requires_client_role(fresh_nodes):
    registry, nodes = fresh_nodes
    _, result = pipeline(registry, nodes)
    with pytest.raises(ValueError):
        accept_validated(nodes[0], sent_to(result, nodes[1]), nodes[0].node_id)


def test_chains_stay_identical_over_many_transactions(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted, clients = nodes[0], nodes[1:]
    now = 0
    for round_nr in range(12):
        origin = clients[round_nr % len(clients)]
        idx = round_nr % len(origin.challenges)
        block = initiate(origin, bytes([round_nr]), idx, now=now)
        result = judge(trusted, block, registry, peers(nodes, trusted), now=now + 5)
        assert result.accepted
        for client in clients:
            assert accept_validated(client, sent_to(result, client), trusted.node_id).accepted
        now += 100
    tips = {node.chain[-1].entry_hash for node in nodes}
    assert len(tips) == 1
    assert len(trusted.chain) == 12


def test_a_client_cannot_forge_a_validation_another_client_accepts(fresh_nodes):
    """A compromised client holds only its own responses. A rebroadcast it
    builds as an honest validation is built, keyed to the entry at the
    victim's height and tip under the trusted node's name, is accepted by
    no other client, with any response the forger holds. Only the victim's
    own response, which the victim and the registry alone hold, makes one
    the victim accepts."""
    registry, nodes = fresh_nodes
    trusted_id, forger, victim = nodes[0].node_id, nodes[1], nodes[2]
    _, result = pipeline(registry, nodes)  # the victim's tip is past the empty chain's
    assert accept_validated(victim, sent_to(result, victim), trusted_id).accepted
    data = BlockData(device_id=forger.node_id, seq=99, t_init=300, payload=b"minted")
    unsigned = WireBlock(data, AuthTag(bytes(32)), 0)  # no device signed it
    entry = make_entry(len(victim.chain), tip_hash(victim.chain), data, unsigned.auth_tag,
                       trusted_id, 300)

    def forged(response):
        tag = hashlib.sha256(entry.entry_hash + response.packed()).digest()
        return replace(unsigned, validated_by=trusted_id, t_validated=300, validation_tag=tag)

    for response in forger.responses:
        outcome = accept_validated(victim, forged(response), trusted_id)
        assert (outcome.accepted, outcome.reason, outcome.blamed) == (
            False, REASON_NO_MATCH, trusted_id)
    assert len(victim.chain) == 1
    own = victim.responses[entry.height % len(victim.responses)]
    assert accept_validated(victim, forged(own), trusted_id).accepted


# --- admission, judgment, blame and demotion ---------------------------------------------

def test_the_protocol_rules_in_one_table(fresh_nodes, monkeypatch):
    """admits over every receiver role, block kind and trusted-node state;
    judge's verdict, hashes and blame per case, calling authenticate and
    accept_validated through the module, once per hashed judgment, and
    rebroadcasts once per accepted origin block; and penalize demoting at
    most once, at its threshold."""
    registry, nodes = fresh_nodes
    trusted_id = nodes[0].node_id

    def fresh(node, **changes):
        return replace(node, chain=[], last_seq_accepted={}, **changes)

    origin = initiate(nodes[1], b"rules", 0, now=1)
    rebroadcast = sent_to(judge(fresh(nodes[0]), origin, registry, peers(nodes, nodes[0]),
                                now=2), nodes[2])
    blocks = {"origin": origin, "names trusted": rebroadcast,
              "names another": replace(rebroadcast, validated_by=nodes[3].node_id)}
    # an origin block is admitted by a trusted receiver, a rebroadcast naming
    # the trusted node while that node is live, one naming another never
    admitted = {"origin": {ROLE_TRUSTED}, "names trusted": {"live"}, "names another": set()}
    for role in (ROLE_TRUSTED, ROLE_CLIENT):
        for kind, block in blocks.items():
            for state in ("live", "demoted"):
                trusted = fresh(nodes[0], role=ROLE_TRUSTED if state == "live" else ROLE_CLIENT)
                got = admits(fresh(nodes[2], role=role), block, trusted)
                assert got == bool({role, state} & admitted[kind]), (role, kind, state)

    seen_trusted, seen_client = fresh(nodes[0]), fresh(nodes[2])
    authenticate(seen_trusted, origin, registry, now=3)
    accept_validated(seen_client, rebroadcast, trusted_id)
    calls = []

    def spy(name):
        original = getattr(consensus, name)

        def called(*args):
            calls.append(name)
            return original(*args)
        return called

    for name in ("authenticate", "rebroadcasts", "accept_validated"):
        monkeypatch.setattr(consensus, name, spy(name))
    unknown = WireBlock(BlockData(device_id=0xFFFFFFFFFFFF, seq=0, t_init=0),
                        AuthTag(b"\x11" * 32), 0)
    bad_auth = replace(origin, auth_tag=AuthTag(b"\x42" * 32))
    bad_validation = replace(rebroadcast, validation_tag=b"\x42" * 32)
    auth, accept = ("authenticate",), ("accept_validated",)
    # receiver, block: accepted, reason, hashes tried, blamed, rebroadcast, the calls it costs
    table = [
        (fresh(nodes[0]), origin, (True, None, 1, None, True, (*auth, "rebroadcasts"))),
        (fresh(nodes[0]), bad_auth, (False, REASON_NO_MATCH, 1, None, False, auth)),
        (fresh(nodes[0]), unknown, (False, REASON_UNKNOWN_DEVICE, 0, None, False, auth)),
        (seen_trusted, origin, (False, REASON_REPLAY, 1, None, False, auth)),
        (fresh(nodes[2]), rebroadcast, (True, None, 1, None, False, accept)),
        (fresh(nodes[2]), bad_validation, (False, REASON_NO_MATCH, 1, trusted_id, False, accept)),
        (fresh(nodes[2]), blocks["names another"],
         (False, REASON_NOT_FROM_TRUSTED, 0, None, False, accept)),
        (seen_client, rebroadcast, (False, REASON_REPLAY, 0, None, False, accept)),
    ]
    for receiver, block, expected in table:
        verdict = judge(receiver, block, registry, peers(nodes, receiver), now=10)
        assert (verdict.accepted, verdict.reason, verdict.hashes_tried, verdict.blamed,
                verdict.rebroadcast is not None, tuple(calls)) == expected
        calls.clear()
    hashes = []
    monkeypatch.setattr(consensus, "sha256", lambda data: hashes.append(data) or b"")
    demoted = fresh(nodes[0], role=ROLE_CLIENT)
    assert judge(demoted, origin, registry, peers(nodes, demoted), now=10) is None
    assert (calls, hashes, demoted.chain) == ([], [], [])

    for threshold, demoted_at in ((0, None), (1, 1), (3, 3)):
        node = fresh(nodes[0])
        demotions = [penalize(node, threshold) for _ in range(5)]
        assert demotions == [k == demoted_at for k in range(1, 6)], threshold
        assert (node.penalties, node.trust_value) == (5, -5)
        assert node.role == (ROLE_TRUSTED if demoted_at is None else ROLE_CLIENT)


# --- proof-of-work baseline ------------------------------------------------------------

def test_leading_zero_bits_oracle():
    assert leading_zero_bits(b"\x80" + b"\x00" * 31) == 0
    assert leading_zero_bits(b"\x01" + b"\xff" * 31) == 7
    assert leading_zero_bits(b"\x00\x20" + b"\x00" * 30) == 10
    assert leading_zero_bits(bytes(32)) == 256


def test_pow_difficulty_zero_returns_first_nonce():
    nonce, digest = pow_mine_baseline(BlockData(1, 2, 3), 0)
    assert nonce == 0
    assert digest == hashlib.sha256(BlockData(1, 2, 3).encoded + bytes(8)).digest()


def test_pow_digest_meets_difficulty_and_nonce_is_minimal():
    data = BlockData(device_id=9, seq=4, t_init=5, payload=b"work")
    difficulty = 10
    nonce, digest = pow_mine_baseline(data, difficulty)
    prefix = data.encoded
    assert digest == hashlib.sha256(prefix + nonce.to_bytes(8, "big")).digest()
    assert leading_zero_bits(digest) >= difficulty
    for earlier in range(nonce):
        other = hashlib.sha256(prefix + earlier.to_bytes(8, "big")).digest()
        assert leading_zero_bits(other) < difficulty


def test_pow_attempts_follow_geometric_scale():
    # difficulty 8 means one success per 256 attempts on average
    attempts = []
    for k in range(60):
        nonce, _ = pow_mine_baseline(BlockData(device_id=k + 1, seq=k, t_init=k), 8)
        attempts.append(nonce + 1)
    mean = sum(attempts) / len(attempts)
    assert 128 < mean < 512


def test_pow_difficulty_bounds():
    with pytest.raises(ValueError):
        pow_mine_baseline(BlockData(1, 1, 1), 33)
    with pytest.raises(ValueError):
        pow_mine_baseline(BlockData(1, 1, 1), -1)
