import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from pufledger.puf import (
    Challenge,
    PufConfig,
    PufDevice,
    Response,
    manufacture,
    random_challenge,
    reference_response,
    read_seeds,
)
from pufledger.fom import (
    ScreeningPolicy,
    mean_abs_correlation,
    randomness,
    reliability,
    screen_challenge,
    uniqueness,
)
from conftest import rng_seeds


def gap_device(deltas, noise):
    """Device whose pair i races oscillators exactly deltas[i] MHz apart."""
    deltas = np.asarray(deltas, dtype=np.float64)
    return PufDevice(
        device_id=0x7,
        set1_freqs=250.0 + deltas,
        set2_freqs=np.full(len(deltas), 250.0),
        noise_sigma_mhz=noise,
    )


def identity_challenge(n):
    return Challenge(np.arange(n), np.arange(n))


def bits(values):
    return Response(np.asarray(values, dtype=np.uint8))


# --- uniqueness ---------------------------------------------------------------

def test_uniqueness_identical_devices_is_zero():
    r = [bits([0, 1, 1, 0])]
    assert uniqueness([r, list(r)]) == 0.0


def test_uniqueness_complementary_devices_is_hundred():
    a = [bits([0, 1, 1, 0])]
    b = [bits([1, 0, 0, 1])]
    assert uniqueness([a, b]) == 100.0


def test_uniqueness_counts_every_unordered_pair():
    a = [bits([0, 0, 0, 0])]
    b = [bits([1, 1, 1, 1])]
    c = [bits([0, 0, 1, 1])]
    # pairs: a-b 100%, a-c 50%, b-c 50% -> mean 200/3
    assert uniqueness([a, b, c]) == pytest.approx(200.0 / 3.0)


@given(st.permutations(range(4)))
@settings(max_examples=12, deadline=None)
def test_uniqueness_invariant_under_device_order(perm):
    rng = np.random.default_rng(11)
    matrix = [[bits(rng.integers(0, 2, size=16)) for _ in range(3)] for _ in range(4)]
    baseline = uniqueness(matrix)
    shuffled = [matrix[i] for i in perm]
    assert uniqueness(shuffled) == pytest.approx(baseline)


def test_uniqueness_rejects_single_device_or_ragged():
    r = [bits([0, 1])]
    with pytest.raises(ValueError):
        uniqueness([r])
    with pytest.raises(ValueError):
        uniqueness([r, [bits([0, 1]), bits([1, 0])]])


# --- reliability ----------------------------------------------------------------

def test_reliability_zero_noise_is_exactly_zero(default_config):
    cfg = PufConfig(noise_sigma_mhz=0.0)
    device = manufacture(cfg, 0x5, 0)
    ch = random_challenge(device.bank_size, 64, np.random.default_rng(0))
    assert reliability(device, ch, 5, read_seeds(rng_seeds(1, 5))) == 0.0


def test_reliability_matches_gaussian_pair_model():
    # one pair 0.1 MHz apart at sigma 0.245: each read is Bernoulli with
    # p1 = Phi(0.1 / (0.245 sqrt 2)), so two reads differ with probability
    # 2 p1 (1 - p1); the mean pairwise distance converges there
    device = gap_device([0.1], 0.245)
    ch = identity_challenge(1)
    p1 = norm.cdf(0.1 / (0.245 * math.sqrt(2)))
    expected = 100.0 * 2 * p1 * (1 - p1)
    measured = reliability(device, ch, 200, read_seeds(list(range(200))))
    assert abs(measured - expected) < 5.0


def test_reliability_requires_two_reads(default_config):
    device = manufacture(default_config, 0x5, 0)
    ch = random_challenge(device.bank_size, 8, np.random.default_rng(0))
    with pytest.raises(ValueError):
        reliability(device, ch, 1, read_seeds([0]))


# --- randomness -----------------------------------------------------------------

def test_randomness_extremes():
    assert randomness(bits([1, 1, 1, 1])) == 100.0
    assert randomness(bits([0, 0, 0, 0])) == 0.0
    assert randomness(bits([0, 1, 0, 1])) == 50.0


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64))
@settings(max_examples=40, deadline=None)
def test_randomness_complement_sums_to_hundred(raw):
    r = bits(raw)
    flipped = bits([1 - b for b in raw])
    assert randomness(r) + randomness(flipped) == pytest.approx(100.0)


# --- correlation -----------------------------------------------------------------

def test_correlation_identical_and_complementary_are_one():
    rng = np.random.default_rng(3)
    r = [bits(rng.integers(0, 2, size=32)) for _ in range(4)]
    mirrored = [bits(1 - resp.bits) for resp in r]
    assert mean_abs_correlation([r, r]) == pytest.approx(1.0)
    assert mean_abs_correlation([r, mirrored]) == pytest.approx(1.0)


def test_correlation_independent_devices_near_zero(default_config):
    devices = [manufacture(default_config, i, 20 + i) for i in range(4)]
    rng = np.random.default_rng(9)
    challenges = [random_challenge(default_config.bank_size, 128, rng) for _ in range(8)]
    matrix = [[reference_response(d, ch) for ch in challenges] for d in devices]
    assert mean_abs_correlation(matrix) < 0.1


def test_correlation_skips_constant_vectors():
    flat = [bits([1, 1, 1, 1])]
    varied = [bits([0, 1, 0, 1])]
    assert mean_abs_correlation([flat, varied]) == 0.0


# --- screening -------------------------------------------------------------------

def test_screening_accepts_balanced_stable_challenge():
    deltas = [5.0 if i % 2 else -5.0 for i in range(128)]
    device = gap_device(deltas, 0.245)
    result = screen_challenge(device, identity_challenge(128), ScreeningPolicy(), read_seeds(rng_seeds(2, 11)))
    assert result.accepted
    assert result.reason is None
    assert result.worst_mismatch_bits == 0
    assert result.randomness_pct == 50.0


def test_screening_rejects_all_ones_response():
    device = gap_device([5.0] * 16, 0.245)
    result = screen_challenge(device, identity_challenge(16), ScreeningPolicy(), read_seeds(rng_seeds(3, 11)))
    assert not result.accepted
    assert result.reason == "randomness"
    assert result.randomness_pct == 100.0


def test_screening_rejects_unstable_challenge():
    # jitter dwarfs every gap, so some read must flip more than allowed
    deltas = [0.01 if i % 2 else -0.01 for i in range(128)]
    device = gap_device(deltas, 50.0)
    result = screen_challenge(device, identity_challenge(128), ScreeningPolicy(), read_seeds(rng_seeds(4, 11)))
    assert not result.accepted
    assert result.reason == "stability"
    assert result.worst_mismatch_bits > ScreeningPolicy().max_unreliable_bits


def test_screening_reference_is_noiseless(default_config):
    device = manufacture(default_config, 0x8, 2)
    ch = random_challenge(device.bank_size, 128, np.random.default_rng(7))
    result = screen_challenge(device, ch, ScreeningPolicy(), read_seeds(rng_seeds(5, 11)))
    assert result.reference == reference_response(device, ch)


def test_screening_needs_enough_seeds(default_config):
    device = manufacture(default_config, 0x8, 2)
    ch = random_challenge(device.bank_size, 128, np.random.default_rng(7))
    with pytest.raises(ValueError):
        screen_challenge(device, ch, ScreeningPolicy(), read_seeds([1, 2, 3]))


def test_screened_challenges_stay_reliable(default_config):
    # survivors of screening should re-read cleanly on fresh seeds too
    device = manufacture(default_config, 0x8, 3)
    rng = np.random.default_rng(8)
    policy = ScreeningPolicy()
    accepted = []
    for k in range(300):
        ch = random_challenge(device.bank_size, 128, rng)
        if screen_challenge(device, ch, policy, read_seeds(rng_seeds(100 + k, 11))).accepted:
            accepted.append(ch)
    assert accepted
    values = [reliability(device, ch, 5, read_seeds(rng_seeds(900 + i, 5)))
              for i, ch in enumerate(accepted)]
    assert float(np.mean(values)) < 2.0


def test_policy_validation():
    with pytest.raises(ValueError):
        ScreeningPolicy(randomness_band=(60.0, 40.0))
    with pytest.raises(ValueError):
        ScreeningPolicy(max_unreliable_bits=-1)
    with pytest.raises(ValueError):
        ScreeningPolicy(n_screen_reevals=0)

