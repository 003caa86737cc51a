"""The screening and reliability reads, their seed-word hash, challenge
drawing and proof-of-work mining against straightforward reference loops:
each fast path must give exactly what the plain per-read code gives."""

import hashlib
import json

import numpy as np
import pytest

from pufledger.puf import (
    Challenge,
    PufConfig,
    Response,
    evaluate,
    manufacture,
    random_challenge,
    reference_response,
    _ReadSeed,
    noisy_bits,
    read_seeds,
)
from pufledger.registry import load_registry, CrpRecord, Registry, enroll
from pufledger.consensus import WireBlock, leading_zero_bits, pow_mine_baseline, wire_from_json, wire_to_json
from pufledger.errors import ChallengeError, ConfigError
from pufledger.fom import ScreeningPolicy, randomness, reliability, screen_challenge
from pufledger.ledger import AuthTag, BlockData, canonical_bytes
from conftest import rng_seeds


def screen_by_evaluate(device, challenge, policy, seeds):
    """screen_challenge spelled out with one evaluate() Response per read."""
    ref = reference_response(device, challenge)
    rnd = randomness(ref)
    low, high = policy.randomness_band
    if not low <= rnd <= high:
        return False, "randomness", rnd, 0, ref
    worst = 0
    for k in range(policy.n_screen_reevals):
        mismatch = evaluate(device, challenge, int(seeds[k])).hamming(ref)
        worst = max(worst, mismatch)
        if mismatch > policy.max_unreliable_bits:
            return False, "stability", rnd, worst, ref
    return True, None, rnd, worst, ref


def reliability_by_evaluate(device, challenge, n_reevals, seeds):
    reads = [evaluate(device, challenge, int(seeds[k])) for k in range(n_reevals)]
    total = sum(reads[a].hamming(reads[b])
                for a in range(n_reevals) for b in range(a + 1, n_reevals))
    n_pairs = n_reevals * (n_reevals - 1) // 2
    return 100.0 * total / (n_pairs * challenge.n_bits)


SCREEN_DEVICES = [
    manufacture(PufConfig(), 0x600, 0),
    manufacture(PufConfig(noise_sigma_mhz=0.0), 0x601, 1),
    manufacture(PufConfig(noise_sigma_mhz=1.0), 0x602, 2),
]


@pytest.mark.parametrize("policy", [ScreeningPolicy(), ScreeningPolicy(max_unreliable_bits=0)])
def test_screen_challenge_matches_a_loop_over_evaluate(policy):
    reasons = set()
    for d, device in enumerate(SCREEN_DEVICES):
        rng = np.random.default_rng([d, 31])
        for k in range(120):
            challenge = random_challenge(device.bank_size, 128, rng)
            seeds = rng_seeds(1000 * d + k, policy.n_screen_reevals)
            result = screen_challenge(device, challenge, policy, read_seeds(seeds))
            expected = screen_by_evaluate(device, challenge, policy, seeds)
            got = (result.accepted, result.reason, result.randomness_pct,
                   result.worst_mismatch_bits, result.reference)
            assert got == expected
            reasons.add(result.reason)
    assert reasons == {None, "randomness", "stability"}


def test_reliability_matches_a_loop_over_evaluate():
    rng = np.random.default_rng(5)
    for d, device in enumerate(SCREEN_DEVICES):
        for k in range(20):
            challenge = random_challenge(device.bank_size, 128, rng)
            seeds = rng_seeds(100 * d + k, 11)
            for n_reevals in (2, 3, 11):
                assert (reliability(device, challenge, n_reevals, read_seeds(seeds))
                        == reliability_by_evaluate(device, challenge, n_reevals, seeds))


def test_reliability_range_checks_the_challenge():
    device = SCREEN_DEVICES[0]
    outside = Challenge.from_pairs([(device.bank_size, 0), (0, 1)])
    with pytest.raises(ChallengeError):
        reliability(device, outside, 2, read_seeds(rng_seeds(0, 2)))


def test_reliability_is_zero_when_every_read_agrees():
    # gaps of 5 MHz against 0.245 MHz jitter: all eleven reads equal the reference
    device = manufacture(PufConfig(), 0x603, 3)
    challenge = random_challenge(device.bank_size, 128, np.random.default_rng(6))
    f1, f2 = device.set1_freqs[challenge.set1_idx], device.set2_freqs[challenge.set2_idx]
    keep = np.abs(f1 - f2) > 5.0
    steady = Challenge(challenge.set1_idx[keep].copy(), challenge.set2_idx[keep].copy())
    seeds = rng_seeds(7, 11)
    ref = reference_response(device, steady)
    assert all(evaluate(device, steady, s) == ref for s in seeds)
    assert reliability(device, steady, 11, read_seeds(seeds)) == 0.0
    assert reliability_by_evaluate(device, steady, 11, seeds) == 0.0


READ_SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]


def test_read_seeds_matches_seed_sequence_at_the_word_edges():
    words = read_seeds(READ_SEED_EDGES)
    assert words.shape == (len(READ_SEED_EDGES), 4) and words.dtype == np.uint64
    for seed, row in zip(READ_SEED_EDGES, words):
        assert np.array_equal(row, np.random.SeedSequence([seed]).generate_state(4, np.uint64))
    for seed in READ_SEED_EDGES:
        assert np.array_equal(read_seeds(seed), words[READ_SEED_EDGES.index(seed)])


def test_read_seeds_matches_seed_sequence_on_random_seeds():
    rng = np.random.default_rng(11)
    full = rng.integers(0, 2**64, size=(80, 100), dtype=np.uint64)   # any 64-bit seed
    low = rng.integers(0, 2**32, size=2_000, dtype=np.int64)         # one-word entropy
    signed = rng.integers(0, 1 << 63, size=2_000)                   # what the simulator draws
    for seeds in (full, low, signed):
        words = read_seeds(seeds)
        assert words.shape == seeds.shape + (4,)
        for seed, row in zip(seeds.reshape(-1).tolist(), words.reshape(-1, 4)):
            assert np.array_equal(row, np.random.SeedSequence([seed]).generate_state(4, np.uint64))


@pytest.mark.parametrize("bad", [
    -1, 2**64, [0, -1], [2**64 - 1, 2**64], np.array([5, -3]), np.array([-(2**63)]),
    [1.5], np.array([2.0]), [True], "7", None,
])
def test_read_seeds_rejects_seeds_outside_64_bits(bad):
    with pytest.raises(ConfigError):
        read_seeds(bad)


def test_evaluate_rejects_a_negative_seed():
    device = SCREEN_DEVICES[0]
    challenge = random_challenge(device.bank_size, 128, np.random.default_rng(8))
    with pytest.raises(ConfigError):
        evaluate(device, challenge, -1)


def test_read_seed_rows_draw_what_default_rng_draws_whatever_their_layout():
    seeds = rng_seeds(12, 40) + READ_SEED_EDGES
    words = read_seeds(seeds)
    spread = np.zeros((len(seeds), 8), dtype=np.uint64)
    spread[:, ::2] = words                       # every row strided
    fortran = np.asfortranarray(words)           # every row non-contiguous
    f1 = np.full(128, 250.0)
    f2 = np.full(128, 250.0)
    for k, seed in enumerate(seeds):
        expected = np.random.default_rng([seed]).normal(0.0, 0.245, (2, 128))
        for row in (words[k], spread[k, ::2], fortran[k]):
            state = _ReadSeed(row).generate_state(4, np.uint64)
            assert state.flags.c_contiguous and state.dtype == np.uint64
            rng = np.random.Generator(np.random.PCG64(_ReadSeed(row)))
            assert rng.normal(0.0, 0.245, (2, 128)).tobytes() == expected.tobytes()
            assert np.array_equal(noisy_bits(f1, f2, 0.245, row),
                                  (f1 + expected[0] > f2 + expected[1]).astype(np.uint8))


def test_evaluate_reads_what_default_rng_draws():
    device = SCREEN_DEVICES[2]
    challenge = random_challenge(device.bank_size, 128, np.random.default_rng(9))
    f1, f2 = device.set1_freqs[challenge.set1_idx], device.set2_freqs[challenge.set2_idx]
    for seed in rng_seeds(13, 200) + READ_SEED_EDGES:
        jitter = np.random.default_rng([seed]).normal(0.0, device.noise_sigma_mhz, (2, 128))
        expected = (f1 + jitter[0] > f2 + jitter[1]).astype(np.uint8)
        assert np.array_equal(evaluate(device, challenge, seed).bits, expected)


def enroll_by_candidate(device, n_candidates, policy, seed):
    """enroll's screening spelled out one candidate at a time: draw the
    challenge, then its read seeds, and screen it before drawing the next."""
    rng = np.random.default_rng([seed])
    kept = {}
    for _ in range(n_candidates):
        challenge = random_challenge(device.bank_size, 128, rng)
        seeds = rng.integers(0, 1 << 63, size=policy.n_screen_reevals).tolist()
        if challenge not in kept:
            accepted, _, _, _, ref = screen_by_evaluate(device, challenge, policy, seeds)
            if accepted:
                kept[challenge] = ref
    return list(kept.items())


@pytest.mark.parametrize("n_candidates", [1, 63, 64, 65, 130])
def test_enroll_in_blocks_matches_screening_one_candidate_at_a_time(n_candidates):
    device = SCREEN_DEVICES[0]
    policy = ScreeningPolicy()
    expected = enroll_by_candidate(device, n_candidates, policy, 77)
    assert expected  # seed 77 keeps the first candidate, so every size enrolls
    record = enroll(Registry(), device, n_candidates, policy, 77)
    assert list(record.pairs) == expected


@pytest.mark.parametrize("value", [2, 255])
def test_response_rejects_uint8_values_above_one(value):
    with pytest.raises(ValueError):
        Response(np.array([0, 1, value, 0], dtype=np.uint8))


@pytest.mark.parametrize("n_bits", [1, 5, 9, 13, 127])
def test_packed_matches_packbits_for_ragged_lengths(n_bits):
    rng = np.random.default_rng(n_bits)
    for _ in range(10):
        bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        response = Response(bits)
        assert response.packed() == np.packbits(bits).tobytes()
        assert Response.from_packed(response.packed(), n_bits) == response
        assert hash(response) == hash(Response(bits.copy()))


def random_challenge_by_pairs(bank_size, n_bits, rng):
    """random_challenge as a loop over (i, j) tuples, keeping first draws."""
    chosen = {}
    while len(chosen) < n_bits:
        need = n_bits - len(chosen)
        i = rng.integers(0, bank_size, size=need)
        j = rng.integers(0, bank_size, size=need)
        for pair in zip(i.tolist(), j.tolist()):
            chosen.setdefault(pair, None)
    return list(chosen)


@pytest.mark.parametrize("bank_size, n_bits", [(256, 128), (16, 200), (4, 16), (3, 9), (1, 1)])
def test_random_challenge_matches_a_loop_over_pairs(bank_size, n_bits):
    for seed in range(100):
        fast_rng, loop_rng = np.random.default_rng([seed]), np.random.default_rng([seed])
        challenge = random_challenge(bank_size, n_bits, fast_rng)
        assert challenge.pairs() == random_challenge_by_pairs(bank_size, n_bits, loop_rng)
        assert fast_rng.integers(0, 1 << 62) == loop_rng.integers(0, 1 << 62)


def test_challenge_equality_is_by_pairs_in_order():
    challenge = random_challenge(256, 128, np.random.default_rng(3))
    copy = Challenge.from_pairs(challenge.pairs())
    assert copy == challenge and hash(copy) == hash(challenge)
    assert Challenge.from_pairs(challenge.pairs()[::-1]) != challenge
    assert Challenge.from_pairs(challenge.pairs()[:-1]) != challenge
    assert challenge != challenge.pairs()


def test_crp_record_rejects_an_equal_copy_of_a_challenge():
    device = SCREEN_DEVICES[0]
    challenge = random_challenge(device.bank_size, 128, np.random.default_rng(4))
    response = reference_response(device, challenge)
    copy = Challenge.from_pairs(challenge.pairs())
    with pytest.raises(ValueError, match="repeat a challenge"):
        CrpRecord(device_id=device.device_id, pairs=((challenge, response), (copy, response)),
                  enrolled_at=0)


def pow_by_plain_loop(data, difficulty_bits):
    prefix = canonical_bytes(data)
    nonce = 0
    while True:
        digest = hashlib.sha256(prefix + nonce.to_bytes(8, "big")).digest()
        if leading_zero_bits(digest) >= difficulty_bits:
            return nonce, digest
        nonce += 1


@pytest.mark.parametrize("difficulty", [8, 9, 10, 11, 12])
def test_pow_mine_baseline_matches_the_plain_loop(difficulty):
    for k in range(4):
        data = BlockData(device_id=0xABC + k, seq=k, t_init=7 * k, payload=bytes([k]) * k)
        assert pow_mine_baseline(data, difficulty) == pow_by_plain_loop(data, difficulty)


# Spellings int(text, 16) takes but format_device_id never writes.
LOOSE_IDS = ["0x00000000ab", "+0000000000a", "0000_000000a", " 0000000000a", "０00000000001"]


@pytest.mark.parametrize("text", LOOSE_IDS)
def test_registry_acl_header_rejects_loose_device_ids(tmp_path, text):
    good = tmp_path / "good.ndjson"
    good.write_text(json.dumps({"trusted_node_ids": ["0000000000ab"]}) + "\n")
    assert load_registry(good).trusted_node_ids == {0xAB}
    bad = tmp_path / "bad.ndjson"
    bad.write_text(json.dumps({"trusted_node_ids": [text]}) + "\n")
    with pytest.raises(ValueError):
        load_registry(bad)


@pytest.mark.parametrize("text", LOOSE_IDS)
@pytest.mark.parametrize("key", ["device_id", "validated_by"])
def test_wire_from_json_rejects_loose_device_ids(text, key):
    block = WireBlock(data=BlockData(0xAB, 1, 2), auth_tag=AuthTag(bytes(32)),
                      validated_by=0xCD, t_validated=3, validation_tag=bytes(32))
    line = wire_to_json(block)
    assert wire_from_json(line) == block
    obj = json.loads(line)
    obj[key] = text
    with pytest.raises(ValueError):
        wire_from_json(json.dumps(obj, separators=(",", ":")))
