import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from pufledger.puf import (
    PufConfig,
    PufDevice,
    Response,
    evaluate,
    format_device_id,
    manufacture,
    random_challenge,
    reference_response,
)
from pufledger.errors import ChallengeError, ConfigError
from oracles import hamming


def single_pair_device(f1: float, f2: float, noise: float) -> PufDevice:
    return PufDevice(
        device_id=0x1,
        set1_freqs=np.array([f1, 200.0]),
        set2_freqs=np.array([f2, 300.0]),
        noise_sigma_mhz=noise,
    )


ONE_BIT = np.array([[0], [0]])


# --- config and identifiers --------------------------------------------------

def test_default_config_shape():
    cfg = PufConfig()
    assert cfg.n_oscillators == 512
    assert cfg.bank_size == 256


@pytest.mark.parametrize("bad", [
    dict(n_oscillators=0),
    dict(n_oscillators=511),            # must split into two equal banks
    dict(rng_seed=-1),
    dict(freq_sigma_mhz=-1.0),
    dict(noise_sigma_mhz=-0.1),
    dict(freq_mean_mhz=0.0),
    dict(n_oscillators=22),             # 121 distinct pairs, fewer than RESPONSE_BITS
    dict(freq_mean_mhz=math.inf),
    dict(freq_sigma_mhz=math.nan),
    dict(noise_sigma_mhz=math.nan),
    dict(noise_sigma_mhz=math.inf),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        PufConfig(**bad)


@pytest.mark.parametrize("f1, noise", [(math.nan, 0.1), (math.inf, 0.1), (250.0, math.nan), (250.0, math.inf)])
def test_device_rejects_non_finite_values(f1, noise):
    with pytest.raises(ConfigError):
        single_pair_device(f1, 250.0, noise)


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_device_id_round_trip(device_id):
    text = format_device_id(device_id)
    assert len(text) == 12 and text == text.lower()
    assert int(text, 16) == device_id


# --- manufacture --------------------------------------------------------------

def test_manufacture_is_deterministic(default_config):
    a = manufacture(default_config, 0x42, 7)
    b = manufacture(default_config, 0x42, 7)
    assert np.array_equal(a.set1_freqs, b.set1_freqs)
    assert np.array_equal(a.set2_freqs, b.set2_freqs)


def test_manufacture_distinct_device_seeds_differ(default_config):
    a = manufacture(default_config, 0x42, 0)
    b = manufacture(default_config, 0x42, 1)
    assert not np.array_equal(a.set1_freqs, b.set1_freqs)


def test_manufacture_rounds_to_micro_mhz(default_config):
    device = manufacture(default_config, 0x42, 3)
    for bank in (device.set1_freqs, device.set2_freqs):
        scaled = bank * 1e6
        assert np.allclose(scaled, np.round(scaled), atol=1e-3)


def test_manufacture_frequency_distribution(default_config):
    # pooled over 8 devices: mean within 0.5 MHz of 250, sd within 10% of 5
    banks = []
    for i in range(8):
        device = manufacture(default_config, i, i)
        banks.append(np.concatenate([device.set1_freqs, device.set2_freqs]))
    pooled = np.concatenate(banks)
    assert abs(pooled.mean() - 250.0) < 0.5
    assert abs(pooled.std() - 5.0) < 0.5


# --- challenges and responses -------------------------------------------------

def test_challenge_out_of_range_for_device(default_config):
    device = manufacture(default_config, 0x9, 0)
    too_big = np.array([[device.bank_size], [0]])
    with pytest.raises(ChallengeError):
        reference_response(device, too_big)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=30, deadline=None)
def test_random_challenge_properties(bank_size, seed):
    n_bits = min(8, bank_size * bank_size)
    rng = np.random.default_rng(seed)
    for set1, set2 in random_challenge(bank_size, n_bits, 3, rng).tolist():
        pairs = list(zip(set1, set2))
        assert len(pairs) == n_bits
        assert len(set(pairs)) == len(pairs)
        assert all(0 <= i < bank_size and 0 <= j < bank_size for i, j in pairs)


@pytest.mark.parametrize("bank_size, n_bits", [(1, 1), (2, 4), (3, 9), (256, 128), (2**31, 128)])
def test_random_challenge_never_draws_a_negative_selector(bank_size, n_bits):
    # selected_freqs relies on this instead of checking signs: a negative
    # selector would read from the bank's end. (2, 4) and (3, 9) must draw
    # every pair, so nearly every row goes through the refill path.
    rng = np.random.default_rng(bank_size)
    for _ in range(3):
        chunk = random_challenge(bank_size, n_bits, 64, rng)
        assert chunk.dtype == np.int64 and chunk.shape == (64, 2, n_bits)
        assert chunk.min() >= 0 and chunk.max() < bank_size


def test_response_pack_round_trip():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=128).astype(np.uint8)
    response = Response(bits)
    packed = response.packed()
    assert len(packed) == 16
    assert np.array_equal(np.unpackbits(np.frombuffer(packed, dtype=np.uint8)), bits)
    assert response.hex() == packed.hex()


def test_response_pack_msb_first():
    bits = np.zeros(8, dtype=np.uint8)
    bits[0] = 1  # first bit is the most significant bit of the first byte
    assert Response(bits).packed() == b"\x80"


def test_response_hamming_counts_differing_bits():
    a = Response(np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=np.uint8))
    b = Response(np.array([1, 1, 0, 0, 1, 0, 0, 1], dtype=np.uint8))
    assert hamming(a, b) == 3
    assert hamming(a, a) == 0


# --- evaluation ---------------------------------------------------------------

def test_reference_response_compares_pairs():
    device = PufDevice(
        device_id=0x2,
        set1_freqs=np.array([251.0, 249.0, 250.0]),
        set2_freqs=np.array([250.0, 250.0, 250.0]),
        noise_sigma_mhz=0.1,
    )
    ch = np.array([[0, 1, 2], [0, 1, 2]])
    bits = reference_response(device, ch).bits.tolist()
    assert bits == [1, 0, 0]  # greater-than wins; ties resolve to 0


def test_evaluate_deterministic_per_seed(default_config):
    device = manufacture(default_config, 0x3, 0)
    rng = np.random.default_rng(1)
    ch = random_challenge(device.bank_size, 128, 1, rng)[0]
    assert evaluate(device, ch, 77).packed() == evaluate(device, ch, 77).packed()


def test_evaluate_varies_across_seeds(default_config):
    device = manufacture(default_config, 0x3, 0)
    rng = np.random.default_rng(2)
    ch = random_challenge(device.bank_size, 128, 1, rng)[0]
    ref = reference_response(device, ch)
    assert any(evaluate(device, ch, seed).packed() != ref.packed() for seed in range(20))


def test_zero_noise_evaluation_equals_reference(default_config):
    cfg = PufConfig(noise_sigma_mhz=0.0)
    device = manufacture(cfg, 0x4, 0)
    rng = np.random.default_rng(3)
    ch = random_challenge(device.bank_size, 128, 1, rng)[0]
    ref = reference_response(device, ch)
    assert all(evaluate(device, ch, seed).packed() == ref.packed() for seed in range(10))


def test_single_bit_flip_probability_matches_gaussian_model():
    # two oscillators 0.1 MHz apart, each read with N(0, 0.245) jitter:
    # P(bit stays 1) = Phi(0.1 / (0.245 * sqrt(2)))
    device = single_pair_device(250.1, 250.0, 0.245)
    expected = norm.cdf(0.1 / (0.245 * math.sqrt(2)))
    n = 4000
    ones = sum(int(evaluate(device, ONE_BIT, seed).bits[0]) for seed in range(n))
    observed = ones / n
    tolerance = 4 * math.sqrt(expected * (1 - expected) / n)
    assert abs(observed - expected) < tolerance


def test_inter_device_distance_near_half(default_config):
    # independent frequency tables make each bit a fair coin between devices
    a = manufacture(default_config, 0xA, 10)
    b = manufacture(default_config, 0xB, 11)
    rng = np.random.default_rng(4)
    total_bits = 0
    differing = 0
    for _ in range(50):
        ch = random_challenge(default_config.bank_size, 128, 1, rng)[0]
        differing += hamming(reference_response(a, ch), reference_response(b, ch))
        total_bits += 128
    fraction = differing / total_bits
    assert abs(fraction - 0.5) < 0.03


def test_noise_errors_grow_with_sigma():
    # identical jitter draws scale with sigma, so per-seed error sets nest
    quiet = single_pair_device(250.1, 250.0, 0.05)
    loud = single_pair_device(250.1, 250.0, 0.5)
    flips_quiet = flips_loud = 0
    for seed in range(300):
        q = int(evaluate(quiet, ONE_BIT, seed).bits[0] == 0)
        l = int(evaluate(loud, ONE_BIT, seed).bits[0] == 0)
        assert l >= q  # any seed that flips the quiet device flips the loud one
        flips_quiet += q
        flips_loud += l
    assert flips_loud > flips_quiet

