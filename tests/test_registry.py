import json
import tracemalloc

import numpy as np
import pytest

from pufledger.puf import PufConfig, manufacture, random_challenge, reference_response
from pufledger.registry import (
    Registry,
    enroll,
    lookup,
    record_to_json_line,
    save_registry,
    trusted_view,
    CrpRecord,
)
from pufledger.errors import (
    AccessDeniedError,
    EnrollmentFailedError,
    RegistryConflictError,
    UnknownDeviceError,
)
from pufledger.fom import ScreeningPolicy, randomness
from pufledger.harness import ScenarioConfig, build_world
from oracles import screen_one


def selectors(record):
    """A record's challenges by value: each one's set1 then set2 selectors."""
    return record.challenges.tolist()


def test_enroll_is_deterministic(default_config, policy):
    device = manufacture(default_config, 0x111, 0)
    first = enroll(Registry(0x1), device, 80, policy, seed=5)
    second = enroll(Registry(0x1), device, 80, policy, seed=5)
    assert selectors(first) == selectors(second)
    assert [r.hex() for r in first.responses] == [r.hex() for r in second.responses]


def test_enroll_seed_changes_selection(default_config, policy):
    device = manufacture(default_config, 0x111, 0)
    first = enroll(Registry(0x1), device, 80, policy, seed=5)
    second = enroll(Registry(0x1), device, 80, policy, seed=6)
    assert selectors(first) != selectors(second)


def test_enrolled_responses_are_noiseless_references(devices, enrolled):
    registry, records = enrolled
    device = devices[1]
    record = records[device.device_id]
    for challenge, response in zip(record.challenges[:10], record.responses):
        assert response.packed() == reference_response(device, challenge).packed()


def test_enrolled_responses_sit_in_randomness_band(enrolled, policy):
    _, records = enrolled
    low, high = policy.randomness_band
    for record in records.values():
        for response in record.responses:
            assert low <= randomness(response.bits) <= high


def test_enroll_twice_conflicts(default_config, policy):
    registry = Registry(0x1)
    device = manufacture(default_config, 0x222, 1)
    enroll(registry, device, 60, policy, seed=9)
    with pytest.raises(RegistryConflictError):
        enroll(registry, device, 60, policy, seed=10)


def test_enroll_fails_when_nothing_survives(default_config):
    impossible = ScreeningPolicy(randomness_band=(0.0, 0.1))
    device = manufacture(default_config, 0x333, 2)
    with pytest.raises(EnrollmentFailedError):
        enroll(Registry(0x1), device, 3, impossible, seed=1)


def test_zero_noise_screening_reduces_to_randomness_band(policy):
    # with no jitter and a permissive band check disabled, acceptance is
    # exactly the balance test on the noiseless response
    cfg = PufConfig(noise_sigma_mhz=0.0)
    device = manufacture(cfg, 0x444, 3)
    strict = ScreeningPolicy(max_unreliable_bits=0, n_screen_reevals=2)
    rng = np.random.default_rng(17)
    low, high = strict.randomness_band
    for k in range(200):
        challenge = random_challenge(device.bank_size, 128, 1, rng)[0]
        expected = low <= randomness(reference_response(device, challenge).bits) <= high
        outcome = screen_one(device, challenge, strict, np.random.default_rng([k]))
        assert outcome.accepted == expected


def test_lookup_requires_trusted_requester(devices, enrolled):
    registry, records = enrolled
    trusted_id = devices[0].device_id
    target = devices[2].device_id
    assert lookup(registry, trusted_id, target) == records[target].responses
    with pytest.raises(AccessDeniedError):
        lookup(registry, devices[1].device_id, target)


def test_lookup_unknown_device(devices, enrolled):
    registry, _ = enrolled
    with pytest.raises(UnknownDeviceError):
        lookup(registry, devices[0].device_id, 0xFFFFFFFFFFFF)


def test_registry_membership(devices, enrolled):
    registry, records = enrolled
    assert all(registry.has_device(device_id) for device_id in records)
    assert registry.has_device(devices[3].device_id)
    assert not registry.has_device(0xFFFFFFFFFFFF)


def test_trusted_view_exposes_only_trusted_nodes(devices, enrolled):
    registry, records = enrolled
    view = trusted_view(registry)
    trusted_id = devices[0].device_id
    assert view == (trusted_id, records[trusted_id].responses)
    with pytest.raises(UnknownDeviceError):  # the trusted node is not enrolled
        trusted_view(Registry(trusted_id))


def test_lookup_and_trusted_view_return_the_stored_responses_tuple(devices, enrolled):
    # the record's own tuple, not one rebuilt per call
    registry, records = enrolled
    trusted_id = devices[0].device_id
    for device in devices:
        stored = records[device.device_id].responses
        assert lookup(registry, trusted_id, device.device_id) is stored
    assert trusted_view(registry)[1] is records[trusted_id].responses


def test_crp_record_validation(default_config):
    device = manufacture(default_config, 0x555, 4)
    with pytest.raises(ValueError):
        CrpRecord(device.device_id, np.empty((0, 2, 128), dtype=np.int64), ())


def test_crp_record_refuses_more_challenges_than_responses(devices, enrolled):
    # the line would pair the first challenge and silently drop the second
    _, records = enrolled
    record = records[devices[1].device_id]
    with pytest.raises(ValueError, match="do not pair"):
        CrpRecord(record.device_id, record.challenges[:2], record.responses[:1])


def test_crp_record_refuses_more_responses_than_challenges(devices, enrolled):
    # the line would write a second pair with an empty challenge list
    _, records = enrolled
    record = records[devices[1].device_id]
    with pytest.raises(ValueError, match="do not pair"):
        CrpRecord(record.device_id, record.challenges[:1], record.responses[:2])
    with pytest.raises(ValueError, match="do not pair"):  # one row, not a stack of them
        CrpRecord(record.device_id, record.challenges[0], record.responses[:2])


def test_record_line_round_trip(enrolled, devices):
    # one record line reads back, with plain json.loads, to every field of the
    # record, and is already in compact canonical form
    _, records = enrolled
    record = records[devices[4].device_id]
    line = record_to_json_line(record)
    obj = json.loads(line)
    assert json.dumps(obj, separators=(",", ":")) == line
    assert obj["device_id"] == f"{record.device_id:012x}"
    assert obj["enrolled_at"] == 0
    assert [pair["challenge"] for pair in obj["pairs"]] == [
        [[i, j] for i, j in zip(set1, set2)] for set1, set2 in record.challenges.tolist()
    ]
    assert [pair["response"] for pair in obj["pairs"]] == [r.hex() for r in record.responses]


def test_registry_file_round_trip(tmp_path, enrolled):
    # every saved line reads back, with plain json.loads, to the ACL or to
    # the record held in memory
    registry, records = enrolled
    path = tmp_path / "registry.ndjson"
    save_registry(path, registry)
    header, *lines = [json.loads(line) for line in path.read_text(encoding="ascii").splitlines()]
    assert header == {"trusted_node_ids": [f"{registry.trusted_id:012x}"]}
    # records is in enrollment order, the order the registry saves
    assert [obj["device_id"] for obj in lines] == [f"{i:012x}" for i in records]
    for obj in lines:
        record = records[int(obj["device_id"], 16)]
        assert [pair["challenge"] for pair in obj["pairs"]] == [
            [[i, j] for i, j in zip(set1, set2)] for set1, set2 in record.challenges.tolist()
        ]
        assert [pair["response"] for pair in obj["pairs"]] == [r.hex() for r in record.responses]


def test_saving_the_registry_holds_less_than_the_file_it_writes(tmp_path):
    """The writer formats and writes a record at a time: what it holds at its
    peak, above its inputs, stays below the file it writes."""
    built = build_world(ScenarioConfig(seed=42))
    registry = built.scenario.world.registry
    path = tmp_path / "registry.ndjson"
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        save_registry(path, registry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(built.records) == 6
    assert peak < path.stat().st_size
