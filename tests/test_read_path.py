"""The screening and reliability reads, challenge drawing, proof-of-work
mining and the artifact line writers against straightforward references:
each fast path must give exactly what the plain read-by-read code, or
json.dumps, gives."""

import ast
import hashlib
import json
import math
import re
import signal
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

from pufledger.puf import (
    CERTAIN_SD,
    PufConfig,
    PufDevice,
    Response,
    challenge_chunks,
    evaluate,
    manufacture,
    random_challenge,
    reference_response,
    selected_freqs,
)
from pufledger.registry import (
    _TOKENS,
    CrpRecord,
    Registry,
    enroll,
    record_to_json_line,
    save_registry,
)
from pufledger.consensus import pow_mine_baseline
from pufledger.errors import ChallengeError, ConfigError, EnrollmentFailedError
from pufledger import fom, harness, netsim, puf, registry
from pufledger.harness import ScenarioConfig, build_world, run_fom_calibration
from pufledger.fom import ScreeningPolicy, randomness, reliability, screen_pool
from pufledger.ledger import (
    AuthTag,
    BlockData,
    ChainEntry,
    append,
    entry_from_json_line,
    entry_to_json_line,
    save_chain,
    sha256,
    verify_chain_bytes,
)
from pufledger.netsim import LogEvent, event_to_json_line, save_events
from pufledger.puf import format_device_id
from conftest import rng_seeds
from oracles import (hamming, leading_zero_bits, noisy_reads_by_mask, reliability_by_read_arrays,
                     screen_one)


def race_thresholds(device, challenge):
    """Each race's threshold (f2 - f1) / (sigma sqrt 2); +-inf where a
    subnormal sigma overflows it."""
    f1 = device.set1_freqs[challenge[0]]
    f2 = device.set2_freqs[challenge[1]]
    with np.errstate(over="ignore"):
        return (f2 - f1) / (device.noise_sigma_mhz * np.sqrt(2))


def read_by_normals(device, challenge, rng):
    """One noisy read spelled out, race by race in bit order: a race within
    CERTAIN_SD of its threshold draws one standard normal from rng and reads
    1 when the normal exceeds the threshold; any other race reads its
    reference bit. No noise, no draw."""
    bits = reference_response(device, challenge).bits.copy()
    if device.noise_sigma_mhz == 0:
        return bits
    for k, threshold in enumerate(race_thresholds(device, challenge).tolist()):
        if abs(threshold) < CERTAIN_SD:
            bits[k] = rng.standard_normal() > threshold
    return bits


def uncertain_count(device, challenge):
    """How many normals read_by_normals draws for one read of a challenge row."""
    if device.noise_sigma_mhz == 0:
        return 0
    return sum(abs(t) < CERTAIN_SD for t in race_thresholds(device, challenge).tolist())


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


def screen_by_rounds(device, chunk, policy, rng):
    """screen_pool spelled out: each row's reference and randomness check,
    then n_screen_reevals rounds, each making one read per in-band row still
    alive, in row order, from rng; a row leaves at its first read that flips
    more than max_unreliable_bits bits, so it reads nothing more. Gives the
    kept rows as (index, packed reference) pairs."""
    refs = [reference_response(device, challenge) for challenge in chunk]
    low, high = policy.randomness_band
    live = [r for r, ref in enumerate(refs) if low <= randomness(ref.bits) <= high]
    for _ in range(policy.n_screen_reevals):
        live = [r for r in live if hamming(Response(read_by_normals(device, chunk[r], rng)),
                                           refs[r]) <= policy.max_unreliable_bits]
    return [(r, refs[r].packed()) for r in live]


def outcome(result):
    """A screen_one result by value: accepted, and the reference's packed bits."""
    return result.accepted, Response(result.reference).packed()


def reliability_by_reads(device, rows, n_reevals, rng):
    """fom.reliability spelled out over a (count, 2, n_bits) stack of rows:
    n_reevals reads from rng, each one read_by_normals of every row in
    turn, and each row's mean pairwise Hamming distance in percent, as a
    list."""
    reads = [[Response(read_by_normals(device, row, rng)) for row in rows]
             for _ in range(n_reevals)]
    n_pairs = n_reevals * (n_reevals - 1) // 2
    return [100.0 * sum(hamming(reads[a][r], reads[b][r])
                        for a in range(n_reevals) for b in range(a + 1, n_reevals))
            / (n_pairs * rows.shape[-1]) for r in range(len(rows))]


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


# rounds of reads: one, the default, more, and enough that every noisy candidate fails
SCREEN_POLICIES = [ScreeningPolicy(n_screen_reevals=n)
                   for n in (1, 11, 21, 150)] + [ScreeningPolicy(max_unreliable_bits=0)]


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
    # one 150-row call against the round-by-round reference
    for d, device in enumerate(SCREEN_DEVICES):
        chunk = random_challenge(device.bank_size, 128, 150, np.random.default_rng([d, 35]))
        rng, oracle_rng = np.random.default_rng([d, 36]), np.random.default_rng([d, 36])
        before = rng.bit_generator.state
        indices, refs = screen_pool(device, chunk, policy, rng)
        kept = [(r, Response(bits).packed()) for r, bits in zip(indices.tolist(), refs)]
        assert kept == screen_by_rounds(device, chunk, policy, oracle_rng)
        # the same draws, no more: no read past a row's first failing one, none for a
        # band reject, and none at all on a noiseless device
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert (rng.bit_generator.state == before) == (device.noise_sigma_mhz == 0)


def worst_flips_by_rounds(device, chunk, policy, rng):
    """What screen_pool measures, spelled out: each row's reference, whether
    it is in the randomness band, and the most bits any of its reads flipped
    (0 when it drew none), the reads made round by round from rng as in
    screen_by_rounds."""
    refs = [reference_response(device, challenge) for challenge in chunk]
    low, high = policy.randomness_band
    in_band = [low <= randomness(ref.bits) <= high for ref in refs]
    worst = [0] * len(chunk)
    live = [r for r, ok in enumerate(in_band) if ok]
    for _ in range(policy.n_screen_reevals):
        alive = []
        for r in live:
            flips = hamming(Response(read_by_normals(device, chunk[r], rng)), refs[r])
            worst[r] = max(worst[r], flips)
            if flips <= policy.max_unreliable_bits:
                alive.append(r)
        live = alive
    return refs, in_band, worst


@pytest.mark.parametrize("policy", SCREEN_POLICIES)
def test_screen_pool_chunks_match_a_loop_over_the_per_candidate_screener(policy):
    # enrollment's pattern, 64-row chunks screened in turn on one generator, against
    # fom.screen_challenge called once per candidate on what the reads measured
    for d, device in enumerate(SCREEN_DEVICES):
        pool = random_challenge(device.bank_size, 128, 150, np.random.default_rng([d, 37]))
        rng, oracle_rng = np.random.default_rng([d, 38]), np.random.default_rng([d, 38])
        kept, expected = [], []
        for start in range(0, 150, 64):
            chunk = pool[start:start + 64]
            rows, bits = screen_pool(device, chunk, policy, rng)
            kept += [(start + r, Response(ref).packed()) for r, ref in zip(rows.tolist(), bits)]
            refs, in_band, worst = worst_flips_by_rounds(device, chunk, policy, oracle_rng)
            expected += [(start + r, refs[r].packed()) for r in range(len(chunk))
                         if fom.screen_challenge(in_band[r], worst[r], policy).accepted]
        assert kept == expected
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


def screen_20000_rounds_in_bounded_memory(gap_mhz, normals_per_round):
    """Screen one candidate whose every gap is +-gap_mhz through 20,000 rounds
    under tracemalloc: it passes, peaks below 1 MB, and draws
    normals_per_round normals a round."""
    deltas = np.where(np.arange(128) % 2 == 0, gap_mhz, -gap_mhz)
    device = PufDevice(0x606, 250.0 + deltas, np.full(128, 250.0), 0.245)
    challenge = np.array([np.arange(128), np.arange(128)])
    assert uncertain_count(device, challenge) == normals_per_round
    policy = ScreeningPolicy(n_screen_reevals=20_000)
    rng, oracle = CountingRng(np.random.default_rng(19)), np.random.default_rng(19)
    tracemalloc.start()
    try:
        result = screen_one(device, challenge, policy, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.accepted
    assert peak < 1 << 20
    # a round with no uncertain race left would draw nothing, so none is run
    assert rng.calls == (20_000 if normals_per_round else 0)
    assert rng.normals == 20_000 * normals_per_round
    for _ in range(20):
        oracle.standard_normal((1000, normals_per_round))
    assert rng.rng.bit_generator.state == oracle.bit_generator.state


def test_screening_reads_a_block_at_a_time_in_bounded_memory():
    # 5 MHz is 14 standard deviations of the 0.245 MHz race noise: every race is
    # certain, so none of the rounds draws
    screen_20000_rounds_in_bounded_memory(5.0, 0)


def test_screening_draws_a_round_at_a_time_in_bounded_memory():
    # 2.43 MHz is 7 standard deviations: every race is uncertain, so each round draws
    # 128 normals, 20 MB of them in all; a race flips with probability 1.2e-12, so no
    # round fails
    screen_20000_rounds_in_bounded_memory(2.43, 128)


def test_reliability_matches_a_loop_over_reads():
    draw_rng = np.random.default_rng(5)
    for d, device in enumerate(SCREEN_DEVICES):
        rng, oracle_rng = np.random.default_rng([d, 33]), np.random.default_rng([d, 33])
        for _ in range(20):
            challenge = random_challenge(device.bank_size, 128, 1, draw_rng)[0]
            for n_reevals in (2, 3, 11):
                assert ([reliability(device, challenge, n_reevals, rng)]
                        == reliability_by_reads(device, challenge[None], n_reevals, oracle_rng))
                assert rng.bit_generator.state == oracle_rng.bit_generator.state
        # a stack of rows reads in one draw, read by read, each read covering every row
        for count in (1, 2, 7):
            stack = random_challenge(device.bank_size, 128, count, draw_rng)
            for n_reevals in (2, 11):
                assert (reliability(device, stack, n_reevals, rng).tolist()
                        == reliability_by_reads(device, stack, n_reevals, oracle_rng))
                assert rng.bit_generator.state == oracle_rng.bit_generator.state


class EvalSeedReads:
    """Stands in for the generator a screening or reliability read draws
    from: the k-th read it serves is the normals evaluate() draws for
    seeds[k], widths[k] of them (the uncertain races of the row it reads),
    so the reads made from it are a loop over evaluate(). A draw must take
    whole reads, each of at least one normal."""

    def __init__(self, seeds, widths):
        assert len(seeds) == len(widths)
        self.seeds, self.widths = seeds, widths
        self.served = 0

    def standard_normal(self, count):
        reads = []
        while count > 0:
            assert self.served < len(self.seeds), "more reads than seeds"
            width = self.widths[self.served]
            assert width > 0, "a read that draws nothing"
            reads.append(np.random.default_rng([self.seeds[self.served]]).standard_normal(width))
            self.served += 1
            count -= width
        assert count == 0, "a draw that splits a read"
        return np.concatenate(reads) if reads else np.empty(0)


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
            reads = EvalSeedReads(rng_seeds(1000 * d + k, policy.n_screen_reevals),
                                  [uncertain_count(device, challenge)] * policy.n_screen_reevals)
            result = screen_one(device, challenge, policy, reads)
            (accepted, reason, ref), n_read = screen_by_evaluate(device, challenge, policy,
                                                                 reads.seeds)
            assert outcome(result) == (accepted, ref.packed())
            # the early stop: no read past the first failing one (none for a randomness
            # reject, at least one for a stability reject); a noiseless device draws none
            assert reads.served == (n_read if device.noise_sigma_mhz else 0)
            reasons.add(reason)
    assert reasons == {None, "randomness", "stability"}


def test_reliability_matches_a_loop_over_evaluate():
    rng = np.random.default_rng(6)
    for d, device in enumerate(SCREEN_DEVICES):
        for k in range(20):
            challenge = random_challenge(device.bank_size, 128, 1, rng)[0]
            for n_reevals in (2, 3, 11):
                reads = EvalSeedReads(rng_seeds(100 * d + k, n_reevals),
                                      [uncertain_count(device, challenge)] * n_reevals)
                assert (reliability(device, challenge, n_reevals, reads)
                        == reliability_by_evaluate(device, challenge, n_reevals, reads.seeds))
                assert reads.served == (n_reevals if device.noise_sigma_mhz else 0)
        # read by read: the k-th read served is row k % 5's read k // 5
        stack = random_challenge(device.bank_size, 128, 5, rng)
        reads = EvalSeedReads(rng_seeds(100 * d + 99, 5 * 11),
                              [uncertain_count(device, row) for _ in range(11) for row in stack])
        assert reliability(device, stack, 11, reads).tolist() == [
            reliability_by_evaluate(device, challenge, 11, reads.seeds[r::5])
            for r, challenge in enumerate(stack)]
        assert reads.served == (5 * 11 if device.noise_sigma_mhz else 0)


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
    assert reliability_by_reads(device, challenge[None], 11, np.random.default_rng(7)) == [0.0]


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
    record = enroll(Registry(device.device_id), device, 60, ScreeningPolicy(), 16)
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


class CountingRng:
    """A generator that passes its draws through and counts the calls and
    the normals."""

    def __init__(self, rng):
        self.rng, self.calls, self.normals = rng, 0, 0

    def standard_normal(self, count):
        self.calls += 1
        self.normals += count
        return self.rng.standard_normal(count)


def edge_stacks():
    """(name, device, stack of challenge rows) read n reads a call and one
    read a call: a noiseless device, a subnormal sigma whose every
    threshold is +-inf, an all-certain row (every gap +-5 MHz, 14 sd), and
    a stack that mixes such rows with rows whose 128 races are all
    uncertain (every gap +-0.3 MHz, under 1 sd)."""
    draw_rng = np.random.default_rng(41)
    noiseless, subnormal = (manufacture(PufConfig(noise_sigma_mhz=sigma), 0x608, 8)
                            for sigma in (0.0, 5e-324))
    certain = np.arange(128)
    deltas = np.where(certain % 2 == 0, 5.0, -5.0)
    device = PufDevice(0x609, np.concatenate([250.0 + deltas, 250.0 + deltas * 0.06]),
                       np.full(256, 250.0), 0.245)
    certain_row, uncertain_row = np.array([certain, certain]), np.array([certain + 128] * 2)
    return [
        ("noiseless", noiseless, random_challenge(256, 128, 5, draw_rng)),
        ("subnormal sigma", subnormal, random_challenge(256, 128, 5, draw_rng)),
        ("all-certain row", device, certain_row[None]),
        ("mixed stack", device, np.array([certain_row, uncertain_row, uncertain_row,
                                          certain_row, uncertain_row, certain_row])),
    ]


@pytest.mark.parametrize("name, device, stack", edge_stacks(), ids=[e[0] for e in edge_stacks()])
def test_n_reads_in_one_read_call_read_as_n_one_read_calls(name, device, stack):
    widths = [uncertain_count(device, row) for row in stack]
    assert set(widths) == ({0, 128} if name == "mixed stack" else {0})
    f1, f2 = selected_freqs(device, stack)
    for n_reads in (1, 3, 11):
        rng, oracle_rng = CountingRng(np.random.default_rng(42)), np.random.default_rng(42)
        at, reads = puf.uncertain_reads(device, f1, f2, rng, n_reads)
        calls = [puf.uncertain_reads(device, f1, f2, oracle_rng, 1) for _ in range(n_reads)]
        # the stack's races, row by row in bit order, each read covering all of them
        assert at.tolist() == [128 * r + g for r in range(len(stack))
                               for g in puf.uncertain_races(device, f1[r], f2[r])[0].tolist()]
        assert all(np.array_equal(call_at, at) for call_at, _ in calls)
        assert reads.tolist() == [call_reads[0].tolist() for _, call_reads in calls]
        assert rng.rng.bit_generator.state == oracle_rng.bit_generator.state
        assert rng.normals == sum(widths) * n_reads
        # a row that draws nothing has no race among the reads: it reads its reference
        assert np.bincount(at // 128, minlength=len(stack)).tolist() == widths


def two_level_stacks():
    """(name, device, (2, 3, 2, n_bits) stack): edge_stacks' mixed stack, and
    a manufactured device's drawn rows, as two levels of rows."""
    _, device, mixed = edge_stacks()[-1]
    drawn = random_challenge(SCREEN_DEVICES[0].bank_size, 128, 6, np.random.default_rng(45))
    return [("mixed stack, two levels", device, mixed.reshape(2, 3, 2, 128)),
            ("drawn rows, two levels", SCREEN_DEVICES[0], drawn.reshape(2, 3, 2, 128))]


READ_STACKS = edge_stacks() + two_level_stacks()


@pytest.mark.parametrize("name, device, stack", READ_STACKS, ids=[e[0] for e in READ_STACKS])
def test_reliability_reads_only_uncertain_races_as_the_read_arrays_oracle_does(name, device,
                                                                                 stack):
    widths = [uncertain_count(device, row) for row in stack.reshape(-1, 2, 128)]
    for n_reevals in (2, 3, 11):
        rng, oracle_rng = CountingRng(np.random.default_rng(46)), np.random.default_rng(46)
        value = reliability(device, stack, n_reevals, rng)
        expected = reliability_by_read_arrays(device, stack, n_reevals, oracle_rng)
        assert value.shape == stack.shape[:-2] and value.tolist() == expected.tolist()
        assert rng.rng.bit_generator.state == oracle_rng.bit_generator.state
        # one standard_normal call of every row's reads; none when no race is uncertain
        assert (rng.calls, rng.normals) == ((1, n_reevals * sum(widths)) if sum(widths)
                                            else (0, 0))
        # a row alone gives one np.float64, drawn as the stack drew its reads
        row = stack.reshape(-1, 2, 128)[-1]
        value = reliability(device, row, n_reevals, rng)
        assert type(value) is np.float64
        assert value == reliability_by_read_arrays(device, row, n_reevals, oracle_rng)
        assert rng.rng.bit_generator.state == oracle_rng.bit_generator.state
    # evaluate's one read of each row is the oracle's read from the same seed
    for row in stack.reshape(-1, 2, 128):
        for s in rng_seeds(47, 3):
            assert (evaluate(device, row, s).bits.tolist()
                    == noisy_reads_by_mask(device, row, np.random.default_rng([s]), 1)[0].tolist())


@pytest.mark.parametrize("n_reads", [2**60, 2**62, 2**63 - 1])
def test_reads_numpy_cannot_size_raise_before_the_generator_moves(n_reads):
    # every such read array would take 2**63 bytes or more, which numpy refuses
    # without allocating
    device = SCREEN_DEVICES[0]
    stack = random_challenge(device.bank_size, 128, 3, np.random.default_rng(47))
    assert all(uncertain_count(device, row) for row in stack)
    for read in (lambda rng: reliability(device, stack, n_reads, rng),
                 lambda rng: reliability(device, stack[0], n_reads, rng)):
        rng = CountingRng(np.random.default_rng(48))
        untouched = rng.rng.bit_generator.state
        with pytest.raises(ValueError):
            read(rng)
        assert rng.calls == 0 and rng.rng.bit_generator.state == untouched


def test_races_a_hair_inside_certain_sd_draw_and_a_hair_outside_do_not():
    # sigma sqrt 2 is 1 to a rounding, so each threshold is its race's gap
    hair = 1e-9
    gaps = np.array([CERTAIN_SD - hair, -(CERTAIN_SD - hair), CERTAIN_SD + hair,
                     -(CERTAIN_SD + hair)])
    device = PufDevice(0x60A, np.full(4, 250.0), 250.0 + gaps, math.sqrt(0.5))
    challenge = np.array([np.arange(4), np.arange(4)])
    assert np.allclose(race_thresholds(device, challenge), gaps, rtol=0, atol=1e-12)
    f1, f2 = selected_freqs(device, challenge)
    at, thresholds = puf.uncertain_races(device, f1, f2)
    assert at.tolist() == [0, 1]
    assert np.allclose(thresholds, gaps[:2], rtol=0, atol=1e-12)
    assert uncertain_count(device, challenge) == 2
    rng = CountingRng(np.random.default_rng(43))
    at, reads = puf.uncertain_reads(device, f1, f2, rng, 5)
    assert rng.normals == 5 * 2 and at.tolist() == [0, 1] and reads.shape == (5, 2)
    # the reference bits, undrawn
    assert all(evaluate(device, challenge, s).bits[2:].tolist() == [0, 1] for s in range(5))
    kept, _ = screen_pool(device, challenge[None], ScreeningPolicy(randomness_band=(0, 100)), rng)
    assert rng.normals == 5 * 2 + 11 * 2 and kept.tolist() == [0]


@pytest.mark.parametrize("name, device, stack", edge_stacks(), ids=[e[0] for e in edge_stacks()])
def test_a_read_with_no_uncertain_race_makes_no_standard_normal_call(name, device, stack):
    widths = [uncertain_count(device, row) for row in stack]
    assert any(widths) == (name == "mixed stack")
    # the stack and each of its rows, through every read entry point
    for rows, width in [(stack, sum(widths)), *zip(stack, widths)]:
        for n_reads in (2, 11):
            rng = CountingRng(np.random.default_rng(49))
            untouched = rng.rng.bit_generator.state
            reliability(device, rows, n_reads, rng)
            assert rng.calls == (1 if width else 0)
            puf.uncertain_reads(device, *selected_freqs(device, rows), rng, n_reads)
            assert rng.calls == (2 if width else 0)
            assert (rng.rng.bit_generator.state == untouched) == (not width)
    if name != "mixed stack":
        rng = CountingRng(np.random.default_rng(50))
        untouched = rng.rng.bit_generator.state
        screen_pool(device, stack, ScreeningPolicy(randomness_band=(0, 100)), rng)
        assert rng.calls == 0 and rng.rng.bit_generator.state == untouched


def test_a_default_world_skips_only_race_reads_that_cannot_flip(monkeypatch):
    # build_world at seed 42, its enrollments recorded and its screening normals counted
    enrollments, counted = [], []
    real_enroll, real_screen = harness.enroll, registry.screen_pool

    def recorded_enroll(*args):
        enrollments.append(args[1:])
        return real_enroll(*args)

    def counted_screen(device, chunk, policy, rng):
        counted.append(CountingRng(rng))
        return real_screen(device, chunk, policy, counted[-1])

    monkeypatch.setattr(harness, "enroll", recorded_enroll)
    monkeypatch.setattr(registry, "screen_pool", counted_screen)
    records = build_world(ScenarioConfig(seed=42)).records
    # the same enrollments by the round-by-round oracle, which tallies every race it reads
    drawn, skipped = [], []
    real_read = read_by_normals

    def tallied_read(device, challenge, rng):
        thresholds = np.abs(race_thresholds(device, challenge))
        drawn.append(int(np.count_nonzero(thresholds < CERTAIN_SD)))
        skipped.extend(thresholds[thresholds >= CERTAIN_SD].tolist())
        return real_read(device, challenge, rng)

    monkeypatch.setitem(globals(), "read_by_normals", tallied_read)
    for device, n_candidates, policy, seed in enrollments:
        expected = enroll_by_rounds(device, n_candidates, policy, seed)
        assert pairs_and_bits(records[device.device_id].pairs) == expected
    assert sum(rng.normals for rng in counted) == sum(drawn)
    assert len(skipped) + sum(drawn) == 128 * len(drawn)
    # about 70% of race-reads skipped, and the chance any of them would have flipped
    assert 0.6 < len(skipped) / (128 * len(drawn)) < 0.8
    assert sum(math.erfc(t / math.sqrt(2)) / 2 for t in skipped) < 1e-9


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
    for seed in rng_seeds(13, 200) + EVAL_SEED_EDGES:
        expected = read_by_normals(device, challenge, np.random.default_rng([seed]))
        assert np.array_equal(evaluate(device, challenge, seed).bits, expected)


def enroll_by_rounds(device, n_candidates, policy, seed):
    """enroll spelled out over one default_rng([seed]): draw a chunk of 64
    challenges in one random_challenge call, then screen it round by round,
    read by read, before drawing the next chunk. Gives the kept (challenge
    row, packed reference) pairs."""
    rng = np.random.default_rng([seed])
    kept = []
    for start in range(0, n_candidates, 64):
        chunk = random_challenge(device.bank_size, 128, min(64, n_candidates - start), rng)
        kept += [(chunk[r].tolist(), ref)
                 for r, ref in screen_by_rounds(device, chunk, policy, rng)]
    return kept


def pairs_and_bits(pairs):
    """(challenge, response) pairs by value: selector rows and packed bits."""
    return [(challenge.tolist(), response.packed()) for challenge, response in pairs]


@pytest.mark.parametrize("n_candidates", [1, 2, 63, 64, 65, 130])
def test_enroll_matches_a_loop_over_one_generator(n_candidates):
    enrolled = 0
    for device in SCREEN_DEVICES:
        for policy in SCREEN_POLICIES:
            expected = enroll_by_rounds(device, n_candidates, policy, 77)
            if not expected:
                with pytest.raises(EnrollmentFailedError):
                    enroll(Registry(device.device_id), device, n_candidates, policy, 77)
                continue
            record = enroll(Registry(device.device_id), device, n_candidates, policy, 77)
            assert pairs_and_bits(record.pairs) == expected
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


def random_challenge_by_pairs(bank_size, n_bits, count, rng, rounds=None):
    """random_challenge as loops over (i, j) tuples: count rows, each n_bits
    set1 draws then n_bits set2 draws, each keeping its first draws of every
    pair; then rounds until no row is short, in each of which every short
    row, in row order, draws need set1 and need set2 indices more. Appends
    each round's needs, in row order, to rounds when it is given."""
    rows = []
    for _ in range(count):
        i = rng.integers(0, bank_size, size=n_bits)
        j = rng.integers(0, bank_size, size=n_bits)
        rows.append(dict.fromkeys(zip(i.tolist(), j.tolist())))
    short = [chosen for chosen in rows if len(chosen) < n_bits]
    while short:
        needs = [n_bits - len(chosen) for chosen in short]
        if rounds is not None:
            rounds.append(needs)
        for chosen, need in zip(short, needs):
            i = rng.integers(0, bank_size, size=need)
            j = rng.integers(0, bank_size, size=need)
            for pair in zip(i.tolist(), j.tolist()):
                chosen.setdefault(pair, None)
        short = [chosen for chosen in short if len(chosen) < n_bits]
    return [list(chosen) for chosen in rows]


@pytest.mark.parametrize("bank_size, n_bits", [(256, 128), (200, 128), (1000, 128), (2**31, 128),
                                               (16, 200), (16, 40), (12, 128), (4, 16), (3, 9),
                                               (1, 1)])
def test_random_challenge_matches_a_loop_over_pairs(bank_size, n_bits):
    # dense banks (3, 4, 12, 16) repeat a pair in most rows, which are refilled after
    # the batch, and at 12 and 16 most chunks take more than one round
    for count, n_seeds in ((1, 100), (63, 4), (64, 4), (65, 4), (130, 4)):
        for seed in range(n_seeds):
            fast_rng, loop_rng = np.random.default_rng([seed]), np.random.default_rng([seed])
            chunk = random_challenge(bank_size, n_bits, count, fast_rng)
            expected = random_challenge_by_pairs(bank_size, n_bits, count, loop_rng)
            assert chunk.shape == (count, 2, n_bits) and chunk.dtype == np.int64
            assert [pairs_of(challenge) for challenge in chunk] == expected
            assert fast_rng.integers(0, 1 << 62) == loop_rng.integers(0, 1 << 62)


class CountingDraws:
    """A generator that passes its integers draws through and records the
    size of each. It has no bit_generator, so a draw that saved or rewound
    the generator's state would raise."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def integers(self, *args, size):
        self.sizes.append(math.prod(np.atleast_1d(size).tolist()))
        return self.rng.integers(*args, size=size)


def first_refill_needs(bank_size, n_bits, count, seed):
    """Each repeat row's first refill need, in row order, from the batch
    random_challenge draws first on default_rng([seed])."""
    batch = np.random.default_rng([seed]).integers(bank_size, size=(count, 2, n_bits))
    needs = [n_bits - len(set(pairs_of(row))) for row in batch]
    return [need for need in needs if need]


def test_a_bank_256_chunk_refills_every_repeat_row_from_one_draw():
    for seed in range(10):
        rng, loop_rng = CountingDraws(np.random.default_rng([seed])), np.random.default_rng([seed])
        chunk = random_challenge(256, 128, 64, rng)
        rounds = []
        assert [pairs_of(challenge) for challenge in chunk] == random_challenge_by_pairs(
            256, 128, 64, loop_rng, rounds)
        assert rng.rng.bit_generator.state == loop_rng.bit_generator.state
        needs = first_refill_needs(256, 128, 64, seed)
        assert needs and rounds == [needs]  # no refill repeated a pair
        # so two calls: the batch, and every repeat row's refill
        assert rng.sizes == [64 * 2 * 128, 2 * sum(needs)]


def test_a_refill_that_repeats_a_pair_is_refilled_in_whole_rounds():
    # at bank 16 a 40-pair row repeats a pair about 95% of the time, and a refilled
    # pair repeats one of the row's own about 15% of the time
    several_rounds = 0
    for seed in range(10):
        rng, loop_rng = CountingDraws(np.random.default_rng([seed])), np.random.default_rng([seed])
        chunk = random_challenge(16, 40, 64, rng)
        rounds = []
        assert [pairs_of(challenge) for challenge in chunk] == random_challenge_by_pairs(
            16, 40, 64, loop_rng, rounds)
        assert rng.rng.bit_generator.state == loop_rng.bit_generator.state
        assert rounds[0] == first_refill_needs(16, 40, 64, seed)
        # the batch, then one call a round: 2 x the needs of the rows still short
        assert rng.sizes == [64 * 2 * 40] + [2 * sum(needs) for needs in rounds]
        several_rounds += len(rounds) >= 2
    assert several_rounds >= 5


@pytest.mark.parametrize("bank_size, n_bits", [(256, 128), (4, 16)])
def test_drawn_selectors_are_not_views_of_the_batch(bank_size, n_bits, monkeypatch):
    # enrollment concatenates each chunk's kept rows into one array of the bank's
    # narrowest unsigned dtype (uint8 at both banks), so a record holds no 64-row
    # chunk alive; at bank 4 every row is refilled, at 256 about one in eight
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
    record = enroll(Registry(device.device_id), device, 192, ScreeningPolicy(), 12)
    challenges = record.challenges
    assert len(chunks) == 3 and len(challenges) == len(record.responses) > 0
    assert challenges.shape[1:] == (2, n_bits) and challenges.dtype == np.uint8
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


def screen_pool_by_candidate(device, chunk, policy, rng):
    """screen_pool in the read order before rounds: candidate by candidate,
    in row order, each reading from rng one read at a time up to its first
    failing read. screen_by_reads in array form, fast enough for 40 runs;
    for a noisy device only."""
    f1, f2 = device.set1_freqs[chunk[:, 0]], device.set2_freqs[chunk[:, 1]]
    refs = f1 > f2
    thresholds = (f2 - f1) / (device.noise_sigma_mhz * np.sqrt(2))
    low, high = policy.randomness_band
    kept = [r for r, (ref, threshold) in enumerate(zip(refs, thresholds))
            if low <= randomness(ref) <= high and not (device.noise_sigma_mhz and any(
                np.count_nonzero((rng.standard_normal(len(ref)) > threshold) != ref)
                > policy.max_unreliable_bits for _ in range(policy.n_screen_reevals)))]
    return np.array(kept, dtype=np.intp), refs[kept]


def screening_figures(seeds):
    """run_fom_calibration's per-device accepted counts and reliability_pct,
    then build_world's responses enrolled per device, at the defaults, over
    the given seeds."""
    counts, reliabilities = calibration_figures(seeds)
    enrolled = [len(record.responses) for seed in seeds
                for record in build_world(ScenarioConfig(seed=seed)).records.values()]
    return counts, reliabilities, enrolled


def test_rounds_of_reads_screen_like_candidate_by_candidate_reads(monkeypatch):
    # both read each candidate by the same rule up to its first failing read; only which
    # normals of the generator each read gets differs
    new = screening_figures(range(1, 21))
    monkeypatch.setattr(fom, "screen_pool", screen_pool_by_candidate)
    monkeypatch.setattr(registry, "screen_pool", screen_pool_by_candidate)
    old = screening_figures(range(1, 21))
    names = ("accepted counts", "reliability_pct", "enrolled responses")
    for name, new_values, old_values in zip(names, new, old):
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
    prefix = data.encoded
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


# indices of the default bank and past it, up to random_challenge's largest bank, and
# both sides of each edge between base-1000 digit groups
RECORD_INDEX = st.one_of(st.integers(0, 259), st.integers(0, 2**31 - 1),
                         st.sampled_from([999, 1000, 999_999, 1_000_000, 10**9, 2**31 - 1]))


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
    line = record_to_json_line(record)
    assert line == record_line_by_json_dumps(record)
    # the same selectors spell the same line in any integer dtype that holds them:
    # int32, and the narrowest unsigned one, as enroll stores a bank just past them
    for dtype in (np.int32, np.min_scalar_type(record.challenges.max())):
        narrow = CrpRecord(device_id, record.challenges.astype(dtype), responses)
        assert record_to_json_line(narrow) == line


def test_record_line_spells_the_largest_index_with_a_fixed_table():
    top = 2**31 - 1  # the largest index random_challenge can draw
    challenge = challenge_of([(0, top), (255, 256), (256, 255), (top, 0)])
    size = _TOKENS.size
    # signed, and uint32: what enroll would store for a bank of 2**31
    for dtype in (np.int64, np.int32, np.uint32):
        record = CrpRecord(7, challenge[None].astype(dtype),
                           (Response(np.array([1, 0, 1, 1], dtype=np.uint8)),))
        line = record_to_json_line(record)
        assert line == record_line_by_json_dumps(record)
        assert f'"challenge":[[0,{top}],[255,256],[256,255],[{top},0]]' in line
    assert _TOKENS.size == size == 8002  # fixed at import, never grown to the largest index


@pytest.mark.parametrize("selector", [-1, -256, -2**31])
def test_record_line_refuses_a_negative_selector(selector):
    # numpy would take -1 from the table's end and write another, valid index
    challenge = challenge_of([(0, 1), (2, selector)])
    for dtype in (np.int64, np.int32):  # only a signed dtype can hold one
        record = CrpRecord(7, challenge[None].astype(dtype),
                           (Response(np.array([1, 0], dtype=np.uint8)),))
        with pytest.raises(ValueError, match="negative"):
            record_to_json_line(record)


# every event layout netsim logs: kind, detail keys in order, one type per key
DETAIL_SHAPES = (
    ("lose", ("tx", "from"), (int, str)),
    ("initiate", ("tx", "seq", "device_id", "challenge_index"), (int, int, str, int)),
    ("tamper", ("tx", "field"), (int, str)),
    ("deliver", ("msg", "tx", "from", "validated", "adv"), (int, int, str, bool, str)),
    ("accept", ("tx", "seq", "height", "role", "hashes", "adv"), (int, int, int, str, int, str)),
    ("rebroadcast", ("tx",), (int,)),
    ("reject", ("msg", "tx", "reason", "hashes", "adv"), (int, int, str, int, str)),
    ("reject", ("msg", "tx", "reason", "adv"), (int, int, str, str)),
    ("penalize", ("penalties", "trust_value"), (int, int)),
    ("demote", ("trust_value",), (int,)),
    ("inject-noop", ("kind", "tx"), (str, int)),
    ("inject", ("kind", "tx"), (str, int)),
    ("inject", ("kind", "device_id"), (str, str)),
    ("inject", ("kind", "claim"), (str, str)),
)
LAYOUTS = [value for value in vars(netsim).values() if isinstance(value, netsim.EventLayout)]


def shape(layout):
    return layout.kind, layout.keys, layout.types


def logged_shapes():
    """The shape of the layout each self.log call in netsim's source names;
    each call names a module-level layout and passes that many values."""
    with open(netsim.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) \
                and call.func.attr == "log":
            name, values = call.args[1], call.args[4]
            assert isinstance(name, ast.Name) and isinstance(values, ast.Tuple), ast.unparse(call)
            layout = getattr(netsim, name.id)
            assert len(values.elts) == len(layout.keys), ast.unparse(call)
            yield shape(layout)


def test_detail_shapes_are_the_shapes_netsim_logs():
    # a layout netsim adds, drops, stops or starts logging cannot leave DETAIL_SHAPES stale
    assert Counter(map(shape, LAYOUTS)) == Counter(DETAIL_SHAPES)
    assert set(logged_shapes()) == set(DETAIL_SHAPES)


# quotes, backslashes, control characters, DEL, non-ASCII, a line separator,
# a lone surrogate and a character outside the BMP, next to everything else
SPECIAL = '"\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=12)
SLOT_VALUE = {
    int: st.one_of(st.sampled_from([-1, 0, 2**63, 2**64]), st.integers(-2**64, 2**64)),
    str: TEXT,
    bool: st.booleans(),
}


@given(st.sampled_from(LAYOUTS), st.data())
@settings(max_examples=500, deadline=None)
def test_event_line_is_json_dumps_of_its_fields(layout, data):
    kind = data.draw(st.one_of(st.just(layout.kind), TEXT), label="kind")
    if kind != layout.kind:  # the same slots under another kind, compiled the same way
        layout = netsim.event_layout(kind, " ".join(
            f"{key}:{typ.__name__}" for key, typ in zip(layout.keys, layout.types)))
    event = LogEvent(
        t_ms=data.draw(st.one_of(st.integers(0, 10**6), U64), label="t_ms"),
        layout=layout,
        node=data.draw(st.one_of(st.none(), DEVICE_ID), label="node"),
        block_ref=data.draw(st.one_of(st.just(""), HASH.map(bytes.hex), TEXT), label="block_ref"),
        values=tuple(data.draw(SLOT_VALUE[typ], label=key)
                     for key, typ in zip(layout.keys, layout.types)),
    )
    assert event.kind == kind
    assert event_to_json_line(event) == event_line_by_json_dumps(event)


@pytest.mark.parametrize("value", [None, 1.5, [1], {"tx": 1}, True])
def test_event_line_refuses_a_detail_value_it_does_not_spell(value):
    # rebroadcast's one slot is an int slot, and a bool is no int
    with pytest.raises(TypeError):
        event_to_json_line(LogEvent(0, netsim._REBROADCAST, None, "", (value,)))


@pytest.mark.parametrize("layout, values", [
    (netsim._DELIVER, (0, 0, "", 1, "normal")),
    (netsim._TAMPER, (0, 7)),
], ids=["int-in-bool-slot", "int-in-str-slot"])
def test_event_line_refuses_an_int_in_a_bool_or_str_slot(layout, values):
    with pytest.raises(TypeError):
        event_to_json_line(LogEvent(0, layout, None, "", values))


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
    for reg, ids, saved in ((Registry(2**48 - 1), ["ffffffffffff"], {}),
                            (registry, [format_device_id(registry.trusted_id)], records)):
        header = dumps({"trusted_node_ids": ids})
        # records is in enrollment order, the order the registry saves
        lines = [header] + [record_to_json_line(record) for record in saved.values()]
        text = saved_text(save_registry, tmp_path / "registry.ndjson", reg)
        assert text == "".join(line + "\n" for line in lines)
    assert text.count("\n") == 1 + len(records)


SLOT_OF = {int: lambda k: k, str: lambda k: f"s{k}", bool: lambda k: k % 3 == 0}
CHUNK = netsim._EVENT_CHUNK


# 15 events run through every layout and start over; the rest straddle whole chunks
@pytest.mark.parametrize("n", [0, 1, 15, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_saved_events_are_their_encoded_lines(tmp_path, n):
    layouts = (LAYOUTS[k % len(LAYOUTS)] for k in range(n))
    events = tuple(LogEvent(k, layout, k % 7 if k % 2 else None, "",
                            tuple(SLOT_OF[typ](k) for typ in layout.types))
                   for k, layout in enumerate(layouts))
    text = saved_text(save_events, tmp_path / "events.ndjson", events)
    assert text == "".join(event_to_json_line(event) + "\n" for event in events)


def test_saving_events_holds_less_than_the_file_it_writes(tmp_path):
    """The writer formats and writes a chunk of lines at a time: what it holds
    at its peak, above its inputs, stays below the file it writes. Joining the
    whole file's lines held the lines, their text and its bytes at once."""
    config = ScenarioConfig(adversary="forge-validator", adversary_events=3,
                            out_dir=str(tmp_path / "run"))
    events = harness.run_scenario(config).result.events
    path = tmp_path / "events.ndjson"
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        save_events(path, events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) > 4 * CHUNK
    assert peak < path.stat().st_size


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
        preimage = (e.height.to_bytes(8, "big") + e.prev_hash + e.data.encoded
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
