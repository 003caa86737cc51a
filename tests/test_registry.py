import numpy as np
import pytest

from pufledger.puf import PufConfig, manufacture, random_challenge, reference_response, read_seeds
from pufledger.registry import (
    Registry,
    enroll,
    load_registry,
    lookup,
    save_registry,
    trusted_view,
    CrpRecord,
    record_from_json_line,
    record_to_json_line,
)
from pufledger.errors import (
    AccessDeniedError,
    EnrollmentFailedError,
    RegistryConflictError,
    UnknownDeviceError,
)
from pufledger.fom import ScreeningPolicy, randomness, screen_challenge
from conftest import rng_seeds


def test_enroll_is_deterministic(default_config, policy):
    device = manufacture(default_config, 0x111, 0)
    first = enroll(Registry([0x1]), device, 80, policy, seed=5)
    second = enroll(Registry([0x1]), device, 80, policy, seed=5)
    assert first.challenges == second.challenges
    assert [r.hex() for r in first.responses] == [r.hex() for r in second.responses]


def test_enroll_seed_changes_selection(default_config, policy):
    device = manufacture(default_config, 0x111, 0)
    first = enroll(Registry([0x1]), device, 80, policy, seed=5)
    second = enroll(Registry([0x1]), device, 80, policy, seed=6)
    assert first.challenges != second.challenges


def test_enrolled_responses_are_noiseless_references(devices, enrolled):
    registry, records = enrolled
    device = devices[1]
    record = records[device.device_id]
    for challenge, response in record.pairs[:10]:
        assert response == reference_response(device, challenge)


def test_enrolled_responses_sit_in_randomness_band(enrolled, policy):
    _, records = enrolled
    low, high = policy.randomness_band
    for record in records.values():
        for response in record.responses:
            assert low <= randomness(response) <= high


def test_enroll_twice_conflicts(default_config, policy):
    registry = Registry([0x1])
    device = manufacture(default_config, 0x222, 1)
    enroll(registry, device, 60, policy, seed=9)
    with pytest.raises(RegistryConflictError):
        enroll(registry, device, 60, policy, seed=10)


def test_enroll_fails_when_nothing_survives(default_config):
    impossible = ScreeningPolicy(randomness_band=(0.0, 0.1))
    device = manufacture(default_config, 0x333, 2)
    with pytest.raises(EnrollmentFailedError):
        enroll(Registry([0x1]), device, 3, impossible, seed=1)


def test_zero_noise_screening_reduces_to_randomness_band(policy):
    # with no jitter and a permissive band check disabled, acceptance is
    # exactly the balance test on the noiseless response
    cfg = PufConfig(noise_sigma_mhz=0.0)
    device = manufacture(cfg, 0x444, 3)
    strict = ScreeningPolicy(max_unreliable_bits=0, n_screen_reevals=2)
    rng = np.random.default_rng(17)
    low, high = strict.randomness_band
    for k in range(200):
        challenge = random_challenge(device.bank_size, 128, rng)
        expected = low <= randomness(reference_response(device, challenge)) <= high
        outcome = screen_challenge(device, challenge, strict, read_seeds(rng_seeds(k, 2)))
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
    assert set(registry.device_ids) == set(records)
    assert registry.has_device(devices[3].device_id)
    assert not registry.has_device(0xFFFFFFFFFFFF)


def test_trusted_view_exposes_only_trusted_nodes(devices, enrolled):
    registry, records = enrolled
    view = trusted_view(registry)
    trusted_id = devices[0].device_id
    assert view == {trusted_id: records[trusted_id].responses}


def test_crp_record_validation(default_config, policy):
    device = manufacture(default_config, 0x555, 4)
    record = enroll(Registry([0x1]), device, 60, policy, seed=3)
    with pytest.raises(ValueError):
        CrpRecord(device_id=device.device_id, pairs=(), enrolled_at=0)
    duplicated = (record.pairs[0], record.pairs[0])
    with pytest.raises(ValueError):
        CrpRecord(device_id=device.device_id, pairs=duplicated, enrolled_at=0)


def test_record_line_round_trip(enrolled, devices):
    _, records = enrolled
    record = records[devices[4].device_id]
    line = record_to_json_line(record)
    parsed = record_from_json_line(line)
    assert parsed.device_id == record.device_id
    assert parsed.enrolled_at == record.enrolled_at
    assert parsed.challenges == record.challenges
    assert [r.hex() for r in parsed.responses] == [r.hex() for r in record.responses]


def test_record_line_rejects_non_canonical_form(enrolled, devices):
    _, records = enrolled
    line = record_to_json_line(records[devices[4].device_id])
    with pytest.raises(ValueError):
        record_from_json_line(line.replace(",", ", ", 1))


def test_registry_file_round_trip(tmp_path, enrolled):
    registry, _ = enrolled
    path = tmp_path / "registry.ndjson"
    save_registry(path, registry)
    loaded = load_registry(path)
    assert loaded.device_ids == registry.device_ids
    assert loaded.trusted_node_ids == registry.trusted_node_ids
    # saving the loaded copy rewrites every challenge and response byte for byte
    again = tmp_path / "again.ndjson"
    save_registry(again, loaded)
    assert again.read_bytes() == path.read_bytes()
    headerless = tmp_path / "headerless.ndjson"
    headerless.write_text(path.read_text().splitlines()[1] + "\n")
    with pytest.raises(ValueError):
        load_registry(headerless)
