import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from pufledger.ledger import AuthTag, BlockData, canonical_bytes, make_auth_tag
from pufledger.consensus import (
    NodeState,
    WireBlock,
    accept_validated,
    authenticate,
    initiate,
    pow_mine_baseline,
    REASON_NO_MATCH,
    REASON_NOT_FROM_TRUSTED,
    REASON_REPLAY,
    REASON_UNKNOWN_DEVICE,
    ROLE_CLIENT,
)
from pufledger.puf import reference_response
from pufledger.registry import trusted_view
from oracles import leading_zero_bits, wire_to_json


def pipeline(registry, nodes, payload=b"demo", challenge_index=0, now=100):
    """initiate at a client, authenticate at the trusted node."""
    trusted, client = nodes[0], nodes[1]
    block = initiate(client, payload, challenge_index, now=now)
    return block, authenticate(trusted, block, registry, now=now + 50)


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


def test_wire_blocks_never_carry_response_bytes(fresh_nodes, enrolled):
    registry, nodes = fresh_nodes
    _, records = enrolled
    client = nodes[1]
    block, result = pipeline(registry, nodes)
    assert result.accepted
    texts = [wire_to_json(block), wire_to_json(result.rebroadcast)]
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
    for original in (block, result.rebroadcast):
        obj = json.loads(wire_to_json(original))
        data = BlockData(int(obj.pop("device_id"), 16), obj.pop("seq"), obj.pop("t_init"),
                         bytes.fromhex(obj.pop("payload")))
        auth_tag = AuthTag(bytes.fromhex(obj.pop("auth_tag")))
        validation = {}
        if original.is_validated:
            validation = dict(validated_by=int(obj.pop("validated_by"), 16),
                              t_validated=obj.pop("t_validated"),
                              validation_tag=bytes.fromhex(obj.pop("validation_tag")))
        assert obj == {}
        assert WireBlock(data, auth_tag, **validation) == original


def test_wire_block_validation_trio_is_all_or_none(fresh_nodes):
    registry, nodes = fresh_nodes
    block, _ = pipeline(registry, nodes)
    with pytest.raises(ValueError):
        WireBlock(data=block.data, auth_tag=block.auth_tag, validated_by=nodes[0].node_id)


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


def test_authenticate_rebroadcast_tag_recomputable(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted = nodes[0]
    _, result = pipeline(registry, nodes)
    rb = result.rebroadcast
    assert rb.validated_by == trusted.node_id
    assert rb.t_validated == 150
    pick = result.entry.height % len(trusted.challenges)
    own = reference_response(trusted.device, trusted.challenges[pick])
    expected = hashlib.sha256(result.entry.entry_hash + own.packed()).digest()
    assert rb.validation_tag == expected


def test_authenticate_scan_stops_at_matching_response(fresh_nodes, enrolled):
    registry, nodes = fresh_nodes
    _, records = enrolled
    trusted, client = nodes[0], nodes[1]
    k = 5
    block = initiate(client, b"x", k, now=1)
    result = authenticate(trusted, block, registry, now=2)
    assert result.accepted
    assert result.hashes_tried == k + 1
    assert result.hashes_tried <= len(records[client.node_id].responses)


def test_authenticate_matches_brute_force_oracle(fresh_nodes, enrolled):
    registry, nodes = fresh_nodes
    _, records = enrolled
    trusted, client = nodes[0], nodes[1]
    stored = records[client.node_id].responses
    rng = np.random.default_rng(31)
    for trial in range(30):
        data = BlockData(device_id=client.node_id, seq=trial, t_init=trial,
                         payload=bytes(rng.bytes(8)))
        if trial % 3 == 0:
            tag = make_auth_tag(data, stored[trial % len(stored)])
        elif trial % 3 == 1:
            tag = AuthTag(bytes(rng.bytes(32)))
        else:
            wrong_data = BlockData(device_id=client.node_id, seq=trial,
                                   t_init=trial, payload=b"tampered")
            tag = make_auth_tag(wrong_data, stored[0])
        expected = any(make_auth_tag(data, r) == tag for r in stored)
        block = WireBlock(data=data, auth_tag=tag)
        result = authenticate(trusted, block, registry, now=trial)
        assert result.accepted == expected
        if not expected:
            assert result.reason == REASON_NO_MATCH
            assert result.hashes_tried == len(stored)


def test_authenticate_rejects_replayed_sequence(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted, client = nodes[0], nodes[1]
    block = initiate(client, b"once", 0, now=1)
    assert authenticate(trusted, block, registry, now=2).accepted
    replayed = authenticate(trusted, block, registry, now=3)
    assert not replayed.accepted
    assert replayed.reason == REASON_REPLAY
    assert len(trusted.chain) == 1


def test_authenticate_rejects_unknown_device(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted = nodes[0]
    data = BlockData(device_id=0xFFFFFFFFFFFF, seq=0, t_init=0)
    block = WireBlock(data=data, auth_tag=AuthTag(b"\x11" * 32))
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
        authenticate(trusted, result.rebroadcast, registry, now=0)


def test_authenticate_without_challenges_raises_before_changing_state(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted = nodes[0]
    block = initiate(nodes[1], b"retry", 0, now=1)
    bare = replace(trusted, challenges=())  # shares trusted's chain and bookkeeping
    with pytest.raises(ValueError, match="no enrolled challenges"):
        authenticate(bare, block, registry, now=2)
    assert bare.chain == [] and bare.trust_value == 0 and bare.last_seq_accepted == {}
    # the block is still new, so a retry by a node that can validate succeeds
    assert authenticate(trusted, block, registry, now=3).accepted


def test_judging_appends_to_the_same_list(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted, client = nodes[0], nodes[2]
    trusted_chain, client_chain = trusted.chain, client.chain
    _, result = pipeline(registry, nodes)
    assert accept_validated(client, result.rebroadcast, trusted_view(registry), now=200).accepted
    assert trusted.chain is trusted_chain and client.chain is client_chain
    assert trusted_chain == client_chain == [result.entry]


# --- accept_validated ---------------------------------------------------------------

def test_clients_replicate_the_exact_entry(fresh_nodes, enrolled):
    registry, nodes = fresh_nodes
    trusted = nodes[0]
    _, result = pipeline(registry, nodes)
    view = trusted_view(registry)
    for client in nodes[1:]:
        outcome = accept_validated(client, result.rebroadcast, view, now=200)
        assert outcome.accepted
        assert outcome.entry == result.entry
        assert client.chain[-1] == trusted.chain[-1]


def test_accept_rejects_unvalidated_block(fresh_nodes):
    registry, nodes = fresh_nodes
    block, _ = pipeline(registry, nodes)
    outcome = accept_validated(nodes[2], block, trusted_view(registry), now=200)
    assert not outcome.accepted
    assert outcome.reason == REASON_NOT_FROM_TRUSTED


def test_accept_rejects_untrusted_validator(fresh_nodes):
    registry, nodes = fresh_nodes
    impostor = nodes[3]
    block, result = pipeline(registry, nodes)
    rb = result.rebroadcast
    forged = replace(rb, validated_by=impostor.node_id)
    outcome = accept_validated(nodes[2], forged, trusted_view(registry), now=200)
    assert not outcome.accepted
    assert outcome.reason == REASON_NOT_FROM_TRUSTED


def test_accept_rejects_wrong_validation_tag(fresh_nodes):
    registry, nodes = fresh_nodes
    block, result = pipeline(registry, nodes)
    rb = result.rebroadcast
    forged = replace(rb, validation_tag=b"\x42" * 32)
    outcome = accept_validated(nodes[2], forged, trusted_view(registry), now=200)
    assert not outcome.accepted
    assert outcome.reason == REASON_NO_MATCH
    assert outcome.hashes_tried == 1


def test_accept_rejects_tag_made_with_another_stored_response(fresh_nodes):
    """The validator signs height 0 with its stored response 0; a tag made
    with any other of its stored responses is not the one it used."""
    registry, nodes = fresh_nodes
    _, result = pipeline(registry, nodes)
    rb = result.rebroadcast
    stored = trusted_view(registry)[rb.validated_by]
    assert result.entry.height % len(stored) == 0
    other = hashlib.sha256(result.entry.entry_hash + stored[1].packed()).digest()
    client = nodes[2]
    outcome = accept_validated(client, replace(rb, validation_tag=other),
                               trusted_view(registry), now=200)
    assert not outcome.accepted
    assert outcome.reason == REASON_NO_MATCH
    assert outcome.hashes_tried == 1
    assert client.chain == []


def test_accept_rejects_replay(fresh_nodes):
    registry, nodes = fresh_nodes
    _, result = pipeline(registry, nodes)
    view = trusted_view(registry)
    client = nodes[2]
    assert accept_validated(client, result.rebroadcast, view, now=200).accepted
    again = accept_validated(client, result.rebroadcast, view, now=201)
    assert not again.accepted
    assert again.reason == REASON_REPLAY
    assert len(client.chain) == 1


def test_accept_requires_client_role(fresh_nodes):
    registry, nodes = fresh_nodes
    _, result = pipeline(registry, nodes)
    with pytest.raises(ValueError):
        accept_validated(nodes[0], result.rebroadcast, trusted_view(registry), now=0)


def test_chains_stay_identical_over_many_transactions(fresh_nodes):
    registry, nodes = fresh_nodes
    trusted, clients = nodes[0], nodes[1:]
    view = trusted_view(registry)
    now = 0
    for round_nr in range(12):
        origin = clients[round_nr % len(clients)]
        idx = round_nr % len(origin.challenges)
        block = initiate(origin, bytes([round_nr]), idx, now=now)
        result = authenticate(trusted, block, registry, now=now + 5)
        assert result.accepted
        for client in clients:
            assert accept_validated(client, result.rebroadcast, view, now=now + 9).accepted
        now += 100
    tips = {node.chain[-1].entry_hash for node in nodes}
    assert len(tips) == 1
    assert len(trusted.chain) == 12


# --- proof-of-work baseline ------------------------------------------------------------

def test_leading_zero_bits_oracle():
    assert leading_zero_bits(b"\x80" + b"\x00" * 31) == 0
    assert leading_zero_bits(b"\x01" + b"\xff" * 31) == 7
    assert leading_zero_bits(b"\x00\x20" + b"\x00" * 30) == 10
    assert leading_zero_bits(bytes(32)) == 256


def test_pow_difficulty_zero_returns_first_nonce():
    nonce, digest = pow_mine_baseline(BlockData(1, 2, 3), 0)
    assert nonce == 0
    assert digest == hashlib.sha256(canonical_bytes(BlockData(1, 2, 3)) + bytes(8)).digest()


def test_pow_digest_meets_difficulty_and_nonce_is_minimal():
    data = BlockData(device_id=9, seq=4, t_init=5, payload=b"work")
    difficulty = 10
    nonce, digest = pow_mine_baseline(data, difficulty)
    prefix = canonical_bytes(data)
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
