"""The screening and reliability reads, challenge drawing, proof-of-work
mining and the artifact line writers against straightforward references:
each fast path must give exactly what the plain read-by-read code, or
json.dumps, gives."""

import hashlib
import json
import re
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

from pufledger.puf import (
    _READ_BLOCK,
    PufConfig,
    PufDevice,
    ReadAhead,
    Response,
    challenge_chunks,
    evaluate,
    manufacture,
    random_challenge,
    reference_response,
    selected_freqs,
)
from pufledger.registry import (
    _INDEX_STRS,
    CrpRecord,
    Registry,
    enroll,
    record_to_json_line,
    save_registry,
)
from pufledger.consensus import pow_mine_baseline
from pufledger.errors import ChallengeError, ConfigError, EnrollmentFailedError
from pufledger import harness, puf, registry
from pufledger.harness import ScenarioConfig, build_world, run_fom_calibration
from pufledger.fom import ScreeningPolicy, randomness, reliability, screen_pool
from pufledger.ledger import (
    AuthTag,
    BlockData,
    ChainEntry,
    append,
    canonical_bytes,
    entry_from_json_line,
    entry_to_json_line,
    save_chain,
    sha256,
    verify_chain_bytes,
)
from pufledger.netsim import LogEvent, event_to_json_line, save_events
from pufledger.puf import format_device_id
from conftest import rng_seeds
from oracles import hamming, leading_zero_bits, screen_one


def read_by_normals(device, challenge, rng):
    """One noisy read spelled out: a standard normal per bit, drawn from rng,
    against the threshold (f2 - f1) / (sigma sqrt 2); no noise, no draw."""
    f1 = device.set1_freqs[challenge[0]]
    f2 = device.set2_freqs[challenge[1]]
    if device.noise_sigma_mhz == 0:
        return (f1 > f2).astype(np.uint8)
    z = rng.standard_normal(len(f1))
    return (z > (f2 - f1) / (device.noise_sigma_mhz * np.sqrt(2))).astype(np.uint8)


def screen_by_reads(device, challenge, policy, rng):
    """screen_challenge spelled out: the randomness check, then one read at
    a time from rng, up to the first failing read. Gives whether the
    challenge passed, why not ("randomness" or "stability"; None when it
    passed) and its reference."""
    ref = reference_response(device, challenge)
    low, high = policy.randomness_band
    if not low <= randomness(ref.bits) <= high:
        return False, "randomness", ref
    for _ in range(policy.n_screen_reevals):
        if hamming(Response(read_by_normals(device, challenge, rng)), ref) > policy.max_unreliable_bits:
            return False, "stability", ref
    return True, None, ref


def outcome(result):
    """A screen_one result by value: accepted, and the reference's packed bits."""
    return result.accepted, Response(result.reference).packed()


def reliability_by_reads(device, challenge, n_reevals, rng):
    reads = [Response(read_by_normals(device, challenge, rng)) for _ in range(n_reevals)]
    total = sum(hamming(reads[a], reads[b])
                for a in range(n_reevals) for b in range(a + 1, n_reevals))
    n_pairs = n_reevals * (n_reevals - 1) // 2
    return 100.0 * total / (n_pairs * challenge.shape[-1])


SCREEN_DEVICES = [
    manufacture(PufConfig(), 0x600, 0),
    manufacture(PufConfig(noise_sigma_mhz=0.0), 0x601, 1),
    manufacture(PufConfig(noise_sigma_mhz=1.0), 0x602, 2),
    # five values against two: a fifth of the races tie (reference bit 0,
    # threshold +0.0) and half read 1, so candidates pass the band and then
    # read through their ties
    PufDevice(0x605, np.resize([249.0, 250.0, 251.0, 252.0, 253.0], 256),
              np.resize([250.0, 251.0], 256), 0.245),
]


# reads per candidate below, at and past one ReadAhead block, and far past it
SCREEN_POLICIES = [ScreeningPolicy(n_screen_reevals=n)
                   for n in (1, 11, _READ_BLOCK + 5, 150)] + [ScreeningPolicy(max_unreliable_bits=0)]


@pytest.mark.parametrize("policy", [ScreeningPolicy(), ScreeningPolicy(max_unreliable_bits=0)])
def test_screen_challenge_matches_a_loop_over_reads(policy):
    reasons = set()
    for d, device in enumerate(SCREEN_DEVICES):
        draw_rng = np.random.default_rng([d, 31])
        rng, oracle_rng = np.random.default_rng([d, 32]), np.random.default_rng([d, 32])
        for _ in range(120):
            challenge = random_challenge(device.bank_size, 128, 1, draw_rng)[0]
            before = rng.bit_generator.state
            result = screen_one(device, challenge, policy, rng)
            accepted, reason, ref = screen_by_reads(device, challenge, policy, oracle_rng)
            assert outcome(result) == (accepted, ref.packed())
            # the same draws, no more: the next candidate reads what the oracle's would
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            # a randomness reject reads nothing, a stability reject has read
            if reason is not None:
                assert (rng.bit_generator.state == before) == (reason == "randomness")
            reasons.add(reason)
    assert reasons == {None, "randomness", "stability"}


@pytest.mark.parametrize("policy", SCREEN_POLICIES)
def test_screen_pool_matches_a_loop_over_reads(policy):
    for d, device in enumerate(SCREEN_DEVICES):
        chunk = random_challenge(device.bank_size, 128, 150, np.random.default_rng([d, 35]))
        rng, oracle_rng = np.random.default_rng([d, 36]), np.random.default_rng([d, 36])
        before = rng.bit_generator.state
        kept, refs = screen_pool(device, chunk, policy, rng)
        expected = []
        for r, challenge in enumerate(chunk):
            accepted, _, ref = screen_by_reads(device, challenge, policy, oracle_rng)
            if accepted:
                expected.append((r, ref.packed()))
        assert [(r, Response(bits).packed()) for r, bits in zip(kept.tolist(), refs)] == expected
        # settled on return: the reads drawn ahead and not used are given back
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert (rng.bit_generator.state == before) == (device.noise_sigma_mhz == 0)


def screen_by_read_ahead(device, challenge, policy, reads):
    """The per-candidate screener that chunked screening replaced, kept as a
    reference: one candidate's gather, reference, band check and thresholds,
    then its reads from a ReadAhead, judged up to a block at a time and used
    up to the first failing read. Gives whether it passed and its reference
    bits."""
    f1 = device.set1_freqs[challenge[0]]
    f2 = device.set2_freqs[challenge[1]]
    ref = f1 > f2
    low, high = policy.randomness_band
    if not low <= 100.0 * (np.count_nonzero(ref) / len(ref)) <= high:
        return False, ref
    if device.noise_sigma_mhz == 0:
        return True, ref
    threshold = (f2 - f1) / (device.noise_sigma_mhz * np.sqrt(2))
    left = policy.n_screen_reevals
    while left:
        flips = ((reads.peek(left) > threshold) != ref).sum(axis=1).tolist()
        failed = [k for k, n in enumerate(flips) if n > policy.max_unreliable_bits]
        if failed:
            reads.use(failed[0] + 1)
            return False, ref
        reads.use(len(flips))
        left -= len(flips)
    return True, ref


@pytest.mark.parametrize("policy", SCREEN_POLICIES)
def test_screen_pool_chunks_match_a_loop_over_the_per_candidate_screener(policy):
    # enrollment's pattern, 64-row chunks screened in turn on one generator, against one
    # ReadAhead carried through every candidate and settled once at the end
    for d, device in enumerate(SCREEN_DEVICES):
        pool = random_challenge(device.bank_size, 128, 150, np.random.default_rng([d, 37]))
        rng, oracle_rng = np.random.default_rng([d, 38]), np.random.default_rng([d, 38])
        kept, refs = [], []
        for start in range(0, 150, 64):
            rows, bits = screen_pool(device, pool[start:start + 64], policy, rng)
            kept += (start + rows).tolist()
            refs += bits.tolist()
        reads = ReadAhead(oracle_rng, 128)
        expected = [(r, ref.tolist()) for r, challenge in enumerate(pool)
                    for accepted, ref in [screen_by_read_ahead(device, challenge, policy, reads)]
                    if accepted]
        reads.settle()
        assert list(zip(kept, refs)) == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("bank", [0, 1])
def test_screen_pool_rejects_a_selector_past_either_bank_of_a_chunk(bank):
    device = SCREEN_DEVICES[0]
    chunk = random_challenge(device.bank_size, 128, 64, np.random.default_rng(20))
    chunk[63, bank, 127] = device.bank_size  # the last selector of the last row
    rng = np.random.default_rng(21)
    before = rng.bit_generator.state
    with pytest.raises(ChallengeError, match="past bank size"):
        screen_pool(device, chunk, ScreeningPolicy(), rng)
    assert rng.bit_generator.state == before


def read_ahead_schedule(rng):
    """A random use of one ReadAhead: up to 12 requests, each of 1 to
    _READ_BLOCK reads, of which 0 to all are used; now and then a settle
    (None) before or between them, and one at the end."""
    schedule = [None] if rng.random() < 0.1 else []
    for _ in range(rng.integers(13)):
        n = int(rng.integers(1, _READ_BLOCK + 1))
        schedule.append((n, int(rng.integers(n + 1))))
        if rng.random() < 0.2:
            schedule.append(None)
    return schedule + [None]


def test_read_ahead_settles_where_one_read_at_a_time_ends():
    # after settle(), the generator stands where one that drew exactly the used reads,
    # one standard_normal(n_bits) at a time, stands; every peek gives those reads' normals
    schedules = np.random.default_rng(18)
    seen = set()
    for trial in range(3000):
        rng, oracle = np.random.default_rng([trial]), np.random.default_rng([trial])
        n_bits = 128 if schedules.random() < 0.9 else 5
        reads = ReadAhead(rng, n_bits)
        used = drawn = 0  # since the last settle, in reads
        refilled = False
        for step in read_ahead_schedule(schedules):
            if step is None:
                seen.add("settle after a refill" if refilled else
                         "settle with nothing drawn" if not drawn else "settle")
                reads.settle()
                assert rng.bit_generator.state == oracle.bit_generator.state
                used = drawn = 0
                refilled = False
                continue
            n, k = step
            ahead = np.random.Generator(np.random.PCG64())
            ahead.bit_generator.state = oracle.bit_generator.state
            expected = np.array([ahead.standard_normal(n_bits) for _ in range(n)])
            assert np.array_equal(reads.peek(n), expected)
            refilled = used + n > drawn
            if refilled:
                drawn += _READ_BLOCK
            if used % _READ_BLOCK + n > _READ_BLOCK:
                seen.add("straddle")
            reads.use(k)
            for _ in range(k):
                oracle.standard_normal(n_bits)
            used += k
        assert rng.integers(1 << 62) == oracle.integers(1 << 62)
    assert seen == {"settle", "settle after a refill", "settle with nothing drawn", "straddle"}


def test_screening_reads_a_block_at_a_time_in_bounded_memory():
    # every gap is +-5 MHz, 14 standard deviations of the 0.245 MHz race noise, so none
    # of the 20,000 reads fails; all of them at once would be 20 MB of normals
    deltas = np.where(np.arange(128) % 2 == 0, 5.0, -5.0)
    device = PufDevice(0x606, 250.0 + deltas, np.full(128, 250.0), 0.245)
    challenge = np.array([np.arange(128), np.arange(128)])
    policy = ScreeningPolicy(n_screen_reevals=20_000)
    rng, oracle = np.random.default_rng(19), np.random.default_rng(19)
    tracemalloc.start()
    try:
        result = screen_one(device, challenge, policy, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.accepted
    assert peak < 1 << 20
    for _ in range(20):
        oracle.standard_normal((1000, 128))
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_reliability_matches_a_loop_over_reads():
    draw_rng = np.random.default_rng(5)
    for d, device in enumerate(SCREEN_DEVICES):
        rng, oracle_rng = np.random.default_rng([d, 33]), np.random.default_rng([d, 33])
        for _ in range(20):
            challenge = random_challenge(device.bank_size, 128, 1, draw_rng)[0]
            for n_reevals in (2, 3, 11):
                assert (reliability(device, challenge, n_reevals, rng)
                        == reliability_by_reads(device, challenge, n_reevals, oracle_rng))
                assert rng.bit_generator.state == oracle_rng.bit_generator.state


class EvalSeedReads:
    """Stands in for the generator a screening or reliability read draws
    from: the k-th read it serves is the normals evaluate() draws for
    seeds[k], so the reads made from it are a loop over evaluate(). It is
    its own bit_generator, whose state is the number of reads served: a
    ReadAhead that restores it gives back every read served after it."""

    def __init__(self, seeds):
        self.seeds = seeds
        self.served = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.served

    @state.setter
    def state(self, served):
        self.served = served

    def standard_normal(self, shape):
        n_reads = shape[0] if len(shape) == 2 else 1
        seeds = self.seeds[self.served:self.served + n_reads]
        assert len(seeds) == n_reads, "more reads than seeds"
        self.served += n_reads
        rows = [np.random.default_rng([s]).standard_normal(shape[-1]) for s in seeds]
        return np.stack(rows).reshape(shape)


def screen_by_evaluate(device, challenge, policy, seeds):
    """screen_challenge spelled out with one evaluate() Response per read;
    also returns the number of reads made."""
    ref = reference_response(device, challenge)
    low, high = policy.randomness_band
    if not low <= randomness(ref.bits) <= high:
        return (False, "randomness", ref), 0
    for k in range(policy.n_screen_reevals):
        if hamming(evaluate(device, challenge, seeds[k]), ref) > policy.max_unreliable_bits:
            return (False, "stability", ref), k + 1
    return (True, None, ref), policy.n_screen_reevals


def reliability_by_evaluate(device, challenge, n_reevals, seeds):
    reads = [evaluate(device, challenge, seeds[k]) for k in range(n_reevals)]
    total = sum(hamming(reads[a], reads[b])
                for a in range(n_reevals) for b in range(a + 1, n_reevals))
    n_pairs = n_reevals * (n_reevals - 1) // 2
    return 100.0 * total / (n_pairs * challenge.shape[-1])


@pytest.mark.parametrize("policy", [ScreeningPolicy(), ScreeningPolicy(max_unreliable_bits=0)])
def test_screen_challenge_matches_a_loop_over_evaluate(policy):
    # screening reads with evaluate()'s arbiter rule, one read per draw, in order
    reasons = set()
    for d, device in enumerate(SCREEN_DEVICES):
        rng = np.random.default_rng([d, 34])
        for k in range(120):
            challenge = random_challenge(device.bank_size, 128, 1, rng)[0]
            # seeds for the block a ReadAhead draws past the last read too
            reads = EvalSeedReads(rng_seeds(1000 * d + k, policy.n_screen_reevals + _READ_BLOCK))
            result = screen_one(device, challenge, policy, reads)
            (accepted, reason, ref), n_read = screen_by_evaluate(device, challenge, policy,
                                                                 reads.seeds)
            assert outcome(result) == (accepted, ref.packed())
            # the early stop, once settled: no read past the first failing one (none for a
            # randomness reject, at least one for a stability reject); a noiseless device
            # draws none
            assert reads.served == (n_read if device.noise_sigma_mhz else 0)
            reasons.add(reason)
    assert reasons == {None, "randomness", "stability"}


def test_reliability_matches_a_loop_over_evaluate():
    rng = np.random.default_rng(6)
    for d, device in enumerate(SCREEN_DEVICES):
        for k in range(20):
            challenge = random_challenge(device.bank_size, 128, 1, rng)[0]
            for n_reevals in (2, 3, 11):
                reads = EvalSeedReads(rng_seeds(100 * d + k, n_reevals))
                assert (reliability(device, challenge, n_reevals, reads)
                        == reliability_by_evaluate(device, challenge, n_reevals, reads.seeds))
                assert reads.served == (n_reevals if device.noise_sigma_mhz else 0)


def test_reliability_range_checks_the_challenge():
    device = SCREEN_DEVICES[0]
    outside = np.array([[device.bank_size, 0], [0, 1]])
    with pytest.raises(ChallengeError):
        reliability(device, outside, 2, np.random.default_rng(0))


def test_reliability_is_zero_when_every_read_agrees():
    # every gap is +-5 MHz, 14 standard deviations of the 0.245 MHz race noise
    deltas = np.where(np.arange(128) % 3 == 0, 5.0, -5.0)
    device = PufDevice(0x603, 250.0 + deltas, np.full(128, 250.0), 0.245)
    challenge = np.array([np.arange(128), np.arange(128)])
    ref = reference_response(device, challenge)
    assert all(evaluate(device, challenge, s).packed() == ref.packed() for s in rng_seeds(7, 11))
    assert reliability(device, challenge, 11, np.random.default_rng(7)) == 0.0
    assert reliability_by_reads(device, challenge, 11, np.random.default_rng(7)) == 0.0


def test_a_noiseless_device_draws_nothing_and_reads_its_reference():
    device = SCREEN_DEVICES[1]
    rng = np.random.default_rng(14)
    untouched = rng.bit_generator.state
    draw_rng = np.random.default_rng(15)
    accepted = 0
    for _ in range(40):
        challenge = random_challenge(device.bank_size, 128, 1, draw_rng)[0]
        ref = reference_response(device, challenge)
        assert evaluate(device, challenge, 3).packed() == ref.packed()
        assert reliability(device, challenge, 11, rng) == 0.0
        result = screen_one(device, challenge, ScreeningPolicy(max_unreliable_bits=0), rng)
        # no stability reject: the band alone decides
        assert result.accepted == (45.0 <= randomness(ref.bits) <= 55.0)
        accepted += result.accepted
    assert accepted and rng.bit_generator.state == untouched
    # enrollment then draws challenges only: the pool of one generator, screened in order
    record = enroll(Registry(), device, 60, ScreeningPolicy(), 16)
    pool_rng = np.random.default_rng([16])
    pool = drawn_pool(device.bank_size, 128, 60, pool_rng)
    expected = [c for c in pool if 45.0 <= randomness(reference_response(device, c).bits) <= 55.0]
    assert record.challenges.tolist() == [c.tolist() for c in expected]


def test_a_subnormal_noise_sigma_reads_without_an_overflow_warning():
    # the threshold of every unequal race overflows to +-inf: a certain bit
    device = manufacture(PufConfig(noise_sigma_mhz=5e-324), 0x604, 4)
    challenge = random_challenge(device.bank_size, 128, 1, np.random.default_rng(10))[0]
    assert evaluate(device, challenge, 1).packed() == reference_response(device, challenge).packed()
    assert reliability(device, challenge, 3, np.random.default_rng(10)) == 0.0
    # the chunk kernel divides every in-band row at once; with no tie every read is
    # certain, so the band alone decides
    chunk = random_challenge(device.bank_size, 128, 64, np.random.default_rng(11))
    f1, f2 = device.set1_freqs[chunk[:, 0]], device.set2_freqs[chunk[:, 1]]
    assert (f1 != f2).all()
    kept, _ = screen_pool(device, chunk, ScreeningPolicy(), np.random.default_rng(12))
    ones = np.count_nonzero(f1 > f2, axis=1)
    assert 0 < len(kept) < 64
    assert kept.tolist() == np.flatnonzero((58 <= ones) & (ones <= 70)).tolist()


def test_evaluate_rejects_a_negative_seed():
    device = SCREEN_DEVICES[0]
    challenge = random_challenge(device.bank_size, 128, 1, np.random.default_rng(8))[0]
    with pytest.raises(ConfigError):
        evaluate(device, challenge, -1)


@pytest.mark.parametrize("bad", [
    -1, 2**64, [0, -1], [2**64 - 1, 2**64], np.array([5, -3]), np.array([-(2**63)]),
    [1.5], np.array([2.0]), [True], "7", None,
])
def test_read_seeds_rejects_seeds_outside_64_bits(bad):
    # a read's seed is evaluate()'s eval_seed: one integer in [0, 2**64), nothing else
    device = SCREEN_DEVICES[0]
    challenge = random_challenge(device.bank_size, 128, 1, np.random.default_rng(8))[0]
    with pytest.raises(ConfigError):
        evaluate(device, challenge, bad)


EVAL_SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]


def test_evaluate_reads_what_default_rng_draws():
    device = SCREEN_DEVICES[2]
    challenge = random_challenge(device.bank_size, 128, 1, np.random.default_rng(9))[0]
    f1, f2 = device.set1_freqs[challenge[0]], device.set2_freqs[challenge[1]]
    for seed in rng_seeds(13, 200) + EVAL_SEED_EDGES:
        z = np.random.default_rng([seed]).standard_normal(128)
        expected = (z > (f2 - f1) / (device.noise_sigma_mhz * np.sqrt(2))).astype(np.uint8)
        assert np.array_equal(evaluate(device, challenge, seed).bits, expected)


def enroll_by_candidate(device, n_candidates, policy, seed):
    """enroll spelled out over one default_rng([seed]): draw a chunk of 64
    challenges in one random_challenge call, then screen them in order,
    read by read, before drawing the next chunk."""
    rng = np.random.default_rng([seed])
    kept = []
    for start in range(0, n_candidates, 64):
        for challenge in random_challenge(device.bank_size, 128, min(64, n_candidates - start), rng):
            accepted, _, ref = screen_by_reads(device, challenge, policy, rng)
            if accepted:
                kept.append((challenge, ref))
    return kept


def pairs_and_bits(pairs):
    """(challenge, response) pairs by value: selector rows and packed bits."""
    return [(challenge.tolist(), response.packed()) for challenge, response in pairs]


@pytest.mark.parametrize("n_candidates", [1, 2, 63, 64, 65, 130])
def test_enroll_matches_a_loop_over_one_generator(n_candidates):
    enrolled = 0
    for device in SCREEN_DEVICES:
        for policy in SCREEN_POLICIES:
            expected = enroll_by_candidate(device, n_candidates, policy, 77)
            if not expected:
                with pytest.raises(EnrollmentFailedError):
                    enroll(Registry(), device, n_candidates, policy, 77)
                continue
            record = enroll(Registry(), device, n_candidates, policy, 77)
            assert pairs_and_bits(record.pairs) == pairs_and_bits(expected)
            enrolled += 1
    # seed 77 keeps the first candidate at the defaults, so every size enrolls somewhere
    assert enrolled


@pytest.mark.parametrize("bank", [0, 1])
def test_selected_freqs_rejects_one_past_either_bank(bank):
    device = SCREEN_DEVICES[0]
    last = device.bank_size - 1
    inside = np.array([[0, last], [last, 0]])
    f1, f2 = selected_freqs(device, inside)
    assert f1.tolist() == [device.set1_freqs[0], device.set1_freqs[last]]
    assert f2.tolist() == [device.set2_freqs[last], device.set2_freqs[0]]
    outside = inside.copy()
    outside[bank] = [0, last + 1]
    with pytest.raises(ChallengeError, match="past bank size"):
        selected_freqs(device, outside)


@pytest.mark.parametrize("n_bits", [1, 2, 3, 7, 100, 127, 128, 129, 1000])
def test_randomness_is_100_times_the_mean_bit_for_every_ones_count(n_bits):
    rng = np.random.default_rng(n_bits)
    rows = []
    for ones in range(n_bits + 1):
        bits = np.zeros(n_bits, dtype=np.uint8)
        bits[rng.choice(n_bits, size=ones, replace=False)] = 1
        assert randomness(bits) == 100.0 * float(bits.mean())
        rows.append(bits)
    # rows at once, as screening's band and the calibration figure take them, and as bools
    assert randomness(np.array(rows)).tolist() == [randomness(bits) for bits in rows]
    assert randomness(np.array(rows, dtype=bool)).tolist() == [randomness(bits) for bits in rows]


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


def pairs_of(challenge):
    return list(zip(*challenge.tolist()))


def drawn_pool(bank_size, n_bits, count, rng):
    """Every challenge challenge_chunks draws, in order, as one array."""
    return np.concatenate(list(challenge_chunks(bank_size, n_bits, count, rng)))


def random_challenge_by_pairs(bank_size, n_bits, count, rng):
    """random_challenge as loops over (i, j) tuples: count rows, each n_bits
    set1 draws then n_bits set2 draws; then, in row order, each row keeps its
    first draws of every pair and, while short, draws need set1 and need set2
    indices more."""
    rows = []
    for _ in range(count):
        i = rng.integers(0, bank_size, size=n_bits)
        j = rng.integers(0, bank_size, size=n_bits)
        rows.append(list(zip(i.tolist(), j.tolist())))
    challenges = []
    for row in rows:
        chosen = dict.fromkeys(row)
        while len(chosen) < n_bits:
            need = n_bits - len(chosen)
            i = rng.integers(0, bank_size, size=need)
            j = rng.integers(0, bank_size, size=need)
            for pair in zip(i.tolist(), j.tolist()):
                chosen.setdefault(pair, None)
        challenges.append(list(chosen))
    return challenges


@pytest.mark.parametrize("bank_size, n_bits", [(256, 128), (200, 128), (1000, 128), (2**31, 128),
                                               (16, 200), (4, 16), (3, 9), (1, 1)])
def test_random_challenge_matches_a_loop_over_pairs(bank_size, n_bits):
    # dense banks (3, 4, 16) repeat a pair in most rows, which are refilled after the batch
    for count, n_seeds in ((1, 100), (63, 4), (64, 4), (65, 4), (130, 4)):
        for seed in range(n_seeds):
            fast_rng, loop_rng = np.random.default_rng([seed]), np.random.default_rng([seed])
            chunk = random_challenge(bank_size, n_bits, count, fast_rng)
            expected = random_challenge_by_pairs(bank_size, n_bits, count, loop_rng)
            assert chunk.shape == (count, 2, n_bits) and chunk.dtype == np.int64
            assert [pairs_of(challenge) for challenge in chunk] == expected
            assert fast_rng.integers(0, 1 << 62) == loop_rng.integers(0, 1 << 62)


@pytest.mark.parametrize("bank_size, n_bits", [(256, 128), (4, 16)])
def test_drawn_selectors_are_not_views_of_the_batch(bank_size, n_bits, monkeypatch):
    # enrollment concatenates each chunk's kept rows into one array, so a record holds
    # no 64-row chunk alive; at bank 4 every row is refilled, at 256 about one in eight
    chunks = []
    real_draw = puf.random_challenge

    def recorded(*args):
        chunks.append(real_draw(*args))
        return chunks[-1]

    monkeypatch.setattr(puf, "random_challenge", recorded)
    monkeypatch.setattr(registry, "RESPONSE_BITS", n_bits)
    # half the first bank beats the whole second, by 4.5 MHz or more: every race is
    # stable, and a bank-4 challenge, which races all 16 pairs, reads 8 ones
    device = PufDevice(0x607, np.resize([240.0, 245.0, 255.0, 260.0], bank_size),
                       np.resize([250.0, 250.5, 249.5, 251.0], bank_size), 0.245)
    record = enroll(Registry(), device, 192, ScreeningPolicy(), 12)
    challenges = record.challenges
    assert len(chunks) == 3 and len(challenges) == len(record.responses) > 0
    assert challenges.shape[1:] == (2, n_bits) and challenges.dtype == np.int64
    assert challenges.base is None and not challenges.flags.writeable
    assert not any(np.shares_memory(challenges, chunk) for chunk in chunks)
    # exactly kept rows: the stored rows are drawn rows, in draw order
    drawn = iter(row for chunk in chunks for row in chunk.tolist())
    assert all(row in drawn for row in challenges.tolist())


def _out_of_time(signum, frame):
    raise AssertionError("enrollment did not end within its time bound")


def test_a_24_oscillator_world_ends_enrollment_in_bounded_time():
    # a 12-per-bank device races 128 of its 144 pairs: every drawn row repeats a
    # pair, and a row redrawn whole would be repeat-free with probability 1.4e-40
    cfg = ScenarioConfig(puf_n_oscillators=24)
    challenges = drawn_pool(12, 128, 500, np.random.default_rng(24))
    assert len(challenges) == 500
    assert all(len(set(pairs_of(challenge))) == 128 for challenge in challenges)
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 60.0)
    try:
        build_world(cfg)
    except EnrollmentFailedError:
        pass  # screening may reject every candidate of so dense a device; it must still end
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# Fixed before the comparison was first run: the two-sided Mann-Whitney U
# test fails the comparison when p falls below this.
MANN_WHITNEY_ALPHA = 0.01


def per_candidate_draws(bank_size, n_bits, count, rng):
    """The pool as the earlier draw took it: one random_challenge call per
    challenge, so a row that repeats a pair is refilled before the next
    row is drawn; the rows come in chunks of 64, as challenge_chunks gives
    them."""
    for start in range(0, count, 64):
        yield np.concatenate([random_challenge(bank_size, n_bits, 1, rng)
                              for _ in range(min(64, count - start))])


def calibration_figures(seeds):
    """run_fom_calibration's per-device accepted counts and reliability_pct
    at the defaults, over the given seeds."""
    counts, reliabilities = [], []
    for seed in seeds:
        doc = run_fom_calibration(ScenarioConfig(seed=seed))
        counts += doc["screening"]["accepted_by_device"]
        reliabilities += [device["reliability_pct"] for device in doc["per_device"]]
    return counts, reliabilities


def test_chunked_pool_draws_calibrate_like_per_candidate_draws(monkeypatch):
    new = calibration_figures(range(1, 21))
    monkeypatch.setattr(harness, "challenge_chunks", per_candidate_draws)
    old = calibration_figures(range(1, 21))
    for name, new_values, old_values in zip(("accepted counts", "reliability_pct"), new, old):
        p = mannwhitneyu(new_values, old_values, alternative="two-sided").pvalue
        assert p >= MANN_WHITNEY_ALPHA, (name, p, np.median(new_values), np.median(old_values))


@pytest.mark.parametrize("bank_size, n_bits", [(2**31 + 1, 128), (2**62, 1), (16, 0), (16, -1),
                                               (4, 17), (1, 2)])
def test_random_challenge_rejects_what_it_cannot_draw_exactly(bank_size, n_bits):
    # above 2**31 per bank the pair codes i * bank_size + j could pass 2**63
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ChallengeError):
        random_challenge(bank_size, n_bits, 64, rng)
    assert rng.bit_generator.state == before


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



# --- artifact lines against json.dumps -------------------------------------------
#
# Each oracle is the writer's body before it was formatted by hand: json.dumps
# of the same dict with compact separators.

def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def entry_line_by_json_dumps(entry):
    return dumps({
        "height": entry.height,
        "prev_hash": entry.prev_hash.hex(),
        "device_id": format_device_id(entry.data.device_id),
        "seq": entry.data.seq,
        "t_init": entry.data.t_init,
        "payload": entry.data.payload.hex(),
        "auth_tag": entry.auth_tag.hex(),
        "trusted_node_id": format_device_id(entry.trusted_node_id),
        "t_validated": entry.t_validated,
        "entry_hash": entry.entry_hash.hex(),
    })


def record_line_by_json_dumps(record):
    return dumps({
        "device_id": format_device_id(record.device_id),
        "enrolled_at": 0,
        "pairs": [
            {"challenge": challenge.T.tolist(), "response": response.hex()}
            for challenge, response in zip(record.challenges, record.responses)
        ],
    })


def event_line_by_json_dumps(event):
    return dumps({
        "t_ms": event.t_ms,
        "kind": event.kind,
        "node": format_device_id(event.node) if event.node is not None else "",
        "block_ref": event.block_ref,
        "detail": event.detail,
    })


U64 = st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1), st.just(2**64 - 1))
DEVICE_ID = st.one_of(st.just(0), st.just(2**48 - 1), st.integers(0, 2**48 - 1))
HASH = st.binary(min_size=32, max_size=32)
PAYLOAD = st.one_of(st.just(b""), st.just(bytes(range(256)) * 256), st.binary(max_size=64))


@given(height=U64, prev_hash=HASH, device_id=DEVICE_ID, seq=U64, t_init=U64, payload=PAYLOAD,
       auth_tag=HASH, trusted_node_id=DEVICE_ID, t_validated=U64, entry_hash=HASH)
@settings(max_examples=300, deadline=None)
def test_entry_line_is_json_dumps_of_its_fields(height, prev_hash, device_id, seq, t_init,
                                                payload, auth_tag, trusted_node_id,
                                                t_validated, entry_hash):
    entry = ChainEntry(height, prev_hash, BlockData(device_id, seq, t_init, payload),
                       AuthTag(auth_tag), trusted_node_id, t_validated, entry_hash)
    line = entry_to_json_line(entry)
    assert line == entry_line_by_json_dumps(entry)
    assert entry_from_json_line(line) == entry


# indices on both sides of the int-string table's end, up to random_challenge's largest bank
RECORD_INDEX = st.one_of(st.integers(0, len(_INDEX_STRS) + 3),
                         st.integers(len(_INDEX_STRS) - 3, 2**31 - 1), st.just(2**31 - 1))


def challenge_of(pairs):
    """The (2, n_bits) selector row of a list of (set1, set2) index pairs."""
    return np.array([[i for i, _ in pairs], [j for _, j in pairs]], dtype=np.int64)


# a record's challenges share one width: 1 to 8 of them, each of n_bits distinct pairs
RECORD_CHALLENGES = st.integers(1, 20).flatmap(lambda n_bits: st.lists(
    st.lists(st.tuples(RECORD_INDEX, RECORD_INDEX), min_size=n_bits, max_size=n_bits, unique=True),
    min_size=1, max_size=8, unique_by=tuple))


@given(RECORD_CHALLENGES, DEVICE_ID, st.data())
@settings(max_examples=200, deadline=None)
def test_record_line_is_json_dumps_of_its_fields(challenges, device_id, data):
    responses = tuple(
        Response(np.array(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=130)),
                          dtype=np.uint8))
        for _ in challenges
    )
    record = CrpRecord(device_id, np.array([challenge_of(pairs) for pairs in challenges]),
                       responses)
    assert record_to_json_line(record) == record_line_by_json_dumps(record)


def test_record_line_spells_indices_past_the_table_with_str():
    top = 2**31 - 1  # the largest index random_challenge can draw
    challenge = challenge_of([(0, top), (255, 256), (256, 255), (top, 0)])
    record = CrpRecord(7, challenge[None], (Response(np.array([1, 0, 1, 1], dtype=np.uint8)),))
    line = record_to_json_line(record)
    assert line == record_line_by_json_dumps(record)
    assert f'"challenge":[[0,{top}],[255,256],[256,255],[{top},0]]' in line
    assert len(_INDEX_STRS) == 256  # fixed at import, never grown to the largest index


# every detail shape netsim logs, by event kind
DETAIL_SHAPES = (
    ("lose", ("tx", "from")),
    ("initiate", ("tx", "seq", "device_id", "challenge_index")),
    ("tamper", ("tx", "field")),
    ("deliver", ("msg", "tx", "from", "validated", "adv")),
    ("ignore", ("msg",)),
    ("accept", ("tx", "seq", "height", "role", "hashes", "adv")),
    ("rebroadcast", ("tx",)),
    ("reject", ("msg", "tx", "reason", "hashes", "adv")),
    ("reject", ("msg", "tx", "reason", "adv")),
    ("penalize", ("penalties", "trust_value")),
    ("demote", ("trust_value",)),
    ("inject-noop", ("kind", "tx")),
    ("inject", ("kind", "tx")),
    ("inject", ("kind", "device_id")),
    ("inject", ("kind", "claim")),
)
# quotes, backslashes, control characters, DEL, non-ASCII, a line separator,
# a lone surrogate and a character outside the BMP, next to everything else
SPECIAL = '"\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=12)
DETAIL_VALUE = st.one_of(st.integers(-1, 3), st.integers(-2**63, 2**64), st.booleans(), TEXT)


@given(st.sampled_from(DETAIL_SHAPES), st.data())
@settings(max_examples=500, deadline=None)
def test_event_line_is_json_dumps_of_its_fields(shape, data):
    kind, keys = shape
    event = LogEvent(
        t_ms=data.draw(st.one_of(st.integers(0, 10**6), U64), label="t_ms"),
        kind=data.draw(st.one_of(st.just(kind), TEXT), label="kind"),
        node=data.draw(st.one_of(st.none(), DEVICE_ID), label="node"),
        block_ref=data.draw(st.one_of(st.just(""), HASH.map(bytes.hex), TEXT), label="block_ref"),
        detail={key: data.draw(DETAIL_VALUE, label=key) for key in keys},
    )
    assert event_to_json_line(event) == event_line_by_json_dumps(event)


@pytest.mark.parametrize("value", [None, 1.5, [1], {"tx": 1}])
def test_event_line_refuses_a_detail_value_it_does_not_spell(value):
    with pytest.raises(TypeError):
        event_to_json_line(LogEvent(0, "ignore", None, "", {"msg": value}))


def saved_text(save, path, objects):
    save(path, objects)
    return path.read_bytes().decode("ascii")


@pytest.mark.parametrize("n", [0, 1, 5])
def test_saved_chain_is_its_encoded_lines(tmp_path, n):
    chain = []
    for k in range(n):
        data = BlockData(device_id=k, seq=k, t_init=k, payload=bytes([k]) * k)
        append(chain, data, AuthTag(sha256(bytes([k]))), 2**48 - 1, k)
    text = saved_text(save_chain, tmp_path / "chain.ndjson", chain)
    assert text == "".join(entry_to_json_line(entry) + "\n" for entry in chain)


def test_saved_registry_is_its_header_then_its_encoded_records(tmp_path, enrolled):
    registry, records = enrolled
    for reg in (Registry(trusted_node_ids=[2**48 - 1, 5]), registry):
        header = dumps({"trusted_node_ids": [format_device_id(i)
                                             for i in sorted(reg.trusted_node_ids)]})
        lines = [header] + [record_to_json_line(records[i]) for i in reg.device_ids]
        text = saved_text(save_registry, tmp_path / "registry.ndjson", reg)
        assert text == "".join(line + "\n" for line in lines)
    assert text.count("\n") == 1 + len(records)


@pytest.mark.parametrize("n", [0, 1, len(DETAIL_SHAPES)])
def test_saved_events_are_their_encoded_lines(tmp_path, n):
    events = tuple(LogEvent(k, kind, k if k % 2 else None, "", {key: k for key in keys})
                   for k, (kind, keys) in enumerate(DETAIL_SHAPES[:n]))
    text = saved_text(save_events, tmp_path / "events.ndjson", events)
    assert text == "".join(event_to_json_line(event) + "\n" for event in events)


# --- chain files against the json.loads parser -----------------------------------
#
# The oracle is the strict parser the line pattern replaced: json.loads, the
# fixed key order, integer and lowercase hex checks, and the re-encoded line
# equal to the input; then a verify that rehashes every entry. Like that
# parser, it builds each entry with ChainEntry, so a value out of range fails
# in both.

ENTRY_KEYS = ("height", "prev_hash", "device_id", "seq", "t_init",
              "payload", "auth_tag", "trusted_node_id", "t_validated", "entry_hash")


def entry_by_json_loads(line):
    obj = json.loads(line)
    if not isinstance(obj, dict) or tuple(obj.keys()) != ENTRY_KEYS:
        raise ValueError("entry record must have exactly the entry keys in order")

    def uint(key):
        if type(obj[key]) is not int or obj[key] < 0:
            raise ValueError(f"{key} must be an integer >= 0")
        return obj[key]

    def hex_bytes(key, n_bytes=None):
        value = obj[key]
        if not isinstance(value, str) or value != value.lower():
            raise ValueError(f"{key} must be a lowercase hex string")
        raw = bytes.fromhex(value)
        if n_bytes is not None and len(raw) != n_bytes:
            raise ValueError(f"{key} must encode exactly {n_bytes} bytes")
        return raw

    def device_id(key):
        value = obj[key]
        if not isinstance(value, str) or re.fullmatch("[0-9a-f]{12}", value) is None:
            raise ValueError(f"{key} must be 12 lowercase hex digits")
        return int(value, 16)

    entry = ChainEntry(
        height=uint("height"),
        prev_hash=hex_bytes("prev_hash", 32),
        data=BlockData(device_id("device_id"), uint("seq"), uint("t_init"), hex_bytes("payload")),
        auth_tag=AuthTag(hex_bytes("auth_tag", 32)),
        trusted_node_id=device_id("trusted_node_id"),
        t_validated=uint("t_validated"),
        entry_hash=hex_bytes("entry_hash", 32),
    )
    if entry_to_json_line(entry) != line:
        raise ValueError("entry record is not in canonical form")
    return entry


def verify_by_rehashing(entries):
    prev = bytes(32)
    for index, e in enumerate(entries):
        preimage = (e.height.to_bytes(8, "big") + e.prev_hash + canonical_bytes(e.data)
                    + e.auth_tag.h + e.trusted_node_id.to_bytes(6, "big")
                    + e.t_validated.to_bytes(8, "big"))
        if e.height != index or e.prev_hash != prev or sha256(preimage) != e.entry_hash:
            return index
        prev = e.entry_hash
    return None


def verify_chain_bytes_by_json_loads(raw):
    entries = []
    body = raw[:-1] if raw.endswith(b"\n") else raw
    for index, segment in enumerate(body.split(b"\n") if raw else ()):
        try:
            entries.append(entry_by_json_loads(segment.decode("ascii")))
        except (ValueError, KeyError, RecursionError):  # RecursionError: deeply nested JSON
            bad = verify_by_rehashing(entries)
            return index if bad is None else bad
    return verify_by_rehashing(entries)


def parsed_or_none(parse, line):
    try:
        return True, parse(line)
    except (ValueError, RecursionError):
        return False, None


# one value as written: a bare integer or a quoted string
VALUE = '("[^"]*"|[0-9]+)'
NESTED = "[" * 100_000 + "]" * 100_000


def escape_at(value, at):
    """A string literal with its character at `at` respelled as a \\u escape."""
    at = 1 + at % (len(value) - 2)
    return f"{value[:at]}\\u{ord(value[at]):04X}{value[at + 1:]}"


# a value as written -> its respelling; `k` is a drawn integer for the edits
# that need one
EITHER = {
    "quoted": lambda v, k: f'"{v}"',
    "true": lambda v, k: "true",
    "null": lambda v, k: "null",
    "nested": lambda v, k: NESTED,
}
INTEGER_RESPELLINGS = {
    **EITHER,
    "minus": lambda v, k: "-" + v,
    "minus-zero": lambda v, k: "-0",
    "exponent": lambda v, k: v + "E0",
    "fraction": lambda v, k: v + ".0",
    "leading-zero": lambda v, k: "0" + v,
    "2**64-1": lambda v, k: str(2**64 - 1),
    "2**64": lambda v, k: str(2**64),
    "5000-digits": lambda v, k: "9" * 5000,
    "other-integer": lambda v, k: str(k),
}
STRING_RESPELLINGS = {
    **EITHER,
    "upper": lambda v, k: v.upper() if v.upper() != v or len(v) == 2 else v[:-2] + 'A"',
    "escape": lambda v, k: escape_at(v, k) if len(v) > 2 else v,
    "odd-hex": lambda v, k: v[:-1] + "0" + v[-1:],
    "padded": lambda v, k: f'" {v[2:]}' if len(v) > 2 else '" "',
    "bare": lambda v, k: v[1:-1] or "0",
    "other-id": lambda v, k: f'"{k % 2**48:012x}"',
    "other-hash": lambda v, k: f'"{k % 2**256:064x}"',
}


@st.composite
def mutated_chain_files(draw):
    """A sound chain file of one to four entries, then up to three edits of
    its lines' values and separators and up to two of its bytes."""
    chain = []
    for _ in range(draw(st.integers(1, 4))):
        data = BlockData(draw(DEVICE_ID), draw(U64), draw(U64), draw(st.binary(max_size=8)))
        append(chain, data, AuthTag(draw(HASH)), draw(DEVICE_ID), draw(U64))
    lines = [entry_to_json_line(entry) for entry in chain]
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        edit = draw(st.sampled_from(["respell", "respell", "respell", "space", "nest-line"]))
        if edit == "respell":
            match = re.search(f'"{draw(st.sampled_from(ENTRY_KEYS))}":{VALUE}', line)
            if match is not None:
                value = match.group(1)
                table = STRING_RESPELLINGS if value.startswith('"') else INTEGER_RESPELLINGS
                respell = table[draw(st.sampled_from(sorted(table)))]
                value = respell(value, draw(st.integers(0, 2**256)))
                line = line[:match.start(1)] + value + line[match.end(1):]
        elif edit == "space":
            separators = [m.end() for m in re.finditer("[:,]", line)]
            if separators:
                at = draw(st.sampled_from(separators))
                line = line[:at] + " " + line[at:]
        else:
            line = NESTED
        lines[index] = line
    raw = bytearray("".join(line + "\n" for line in lines).encode("utf-8"))
    if draw(st.booleans()):
        del raw[-1]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(raw)))
        edit = draw(st.sampled_from(["flip", "insert", "delete"]))
        if edit == "flip" and at < len(raw):
            raw[at] ^= draw(st.integers(1, 255))
        elif edit == "insert":
            raw[at:at] = bytes([draw(st.integers(0, 255))])
        elif edit == "delete":
            del raw[at:at + draw(st.integers(1, 3))]
    return bytes(raw)


def assert_read_alike(raw):
    """verify_chain_bytes gives the oracle's height, and each line parses
    to the oracle's entry or fails as the oracle's does."""
    assert verify_chain_bytes(raw) == verify_chain_bytes_by_json_loads(raw)
    for segment in raw.split(b"\n"):
        line = segment.decode("latin-1")  # every byte a character, so non-ASCII reaches both
        assert (parsed_or_none(entry_from_json_line, line)
                == parsed_or_none(entry_by_json_loads, line))


@given(mutated_chain_files())
@settings(max_examples=1000, deadline=None)
def test_chain_files_read_as_the_json_loads_parser_reads_them(raw):
    assert_read_alike(raw)


def test_every_respelling_of_every_value_reads_as_the_json_loads_parser_reads_it():
    chain = []
    for k, payload in enumerate([b"", b"\xab\x01", bytes(range(250, 256))]):
        data = BlockData(0xABCDEF012345 + k, 2**64 - 1 - k, 10**k, payload)
        append(chain, data, AuthTag(sha256(payload)), 0xFEDCBA987654, 2**63 + k)
    lines = [entry_to_json_line(entry) for entry in chain]
    for index, line in enumerate(lines):
        for key in ENTRY_KEYS:
            match = re.search(f'"{key}":{VALUE}', line)
            value = match.group(1)
            table = STRING_RESPELLINGS if value.startswith('"') else INTEGER_RESPELLINGS
            for name, respell in table.items():
                for k in (0, 7, 2**200 + 0xABC):
                    bad = line[:match.start(1)] + respell(value, k) + line[match.end(1):]
                    assert_read_alike("".join(
                        (bad if i == index else other) + "\n" for i, other in enumerate(lines)
                    ).encode("ascii"))
