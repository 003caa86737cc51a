"""Small reference functions that only the tests need: the wire rendering
c08 scans for leaked responses, the leading-zero count the proof-of-work
tests check digests with, the Hamming distance the screening and
evaluation tests count bit errors with, screening one challenge row at a
time, and the three figures of merit computed over whole arrays and pair
by pair, as fom computed them before it counted only what can differ."""

import json
from typing import NamedTuple

import numpy as np

from pufledger.consensus import WireBlock
from pufledger.fom import screen_pool
from pufledger.puf import (CERTAIN_SD, Response, arbiter_bits, format_device_id,
                           reference_response, selected_freqs)


def wire_to_json(block: WireBlock) -> str:
    """The block as it would travel: compact JSON of every field it carries."""
    obj = {
        "device_id": format_device_id(block.data.device_id),
        "seq": block.data.seq,
        "t_init": block.data.t_init,
        "payload": block.data.payload.hex(),
        "auth_tag": block.auth_tag.hex(),
        "challenge_index": block.challenge_index,
    }
    if block.is_validated:
        obj["validated_by"] = format_device_id(block.validated_by)
        obj["t_validated"] = block.t_validated
        obj["validation_tag"] = block.validation_tag.hex()
    return json.dumps(obj, separators=(",", ":"))


def leading_zero_bits(digest: bytes) -> int:
    value = int.from_bytes(digest, "big")
    return len(digest) * 8 - value.bit_length()


def hamming(a: Response, b: Response) -> int:
    """The number of bits in which two equally long responses differ."""
    if a.n_bits != b.n_bits:
        raise ValueError("responses differ in length")
    return int(np.count_nonzero(a.bits != b.bits))


class Screened(NamedTuple):
    accepted: bool
    reference: np.ndarray  # the noiseless bits, as a bool array


def screen_one(device, challenge, policy, rng):
    """screen_pool on the one-row chunk of a (2, n_bits) challenge row:
    whether it was kept, and its noiseless bits (which screen_pool returns
    for a kept row, and must return right)."""
    kept, refs = screen_pool(device, challenge[None], policy, rng)
    reference = reference_response(device, challenge).bits.astype(bool)
    assert all(np.array_equal(bits, reference) for bits in refs)
    return Screened(len(kept) == 1, reference)


def noisy_reads_by_mask(device, challenge, rng, n_reads):
    """n_reads noisy reads of a row or a stack of rows over the whole
    (..., n_reads, n_bits) array of reads: the reference bits broadcast over
    the reads, then one normal for every uncertain race of that array, one
    whose threshold (f2 - f1) / (sigma sqrt 2) is within CERTAIN_SD of 0, in
    one draw in its C order (row, then read, then bit). A noiseless device
    draws nothing."""
    f1, f2 = selected_freqs(device, challenge)
    f1, f2 = f1[..., None, :], f2[..., None, :]
    shape = f1.shape[:-2] + (n_reads, f1.shape[-1])
    reads = np.broadcast_to(arbiter_bits(f1, f2), shape).copy()
    if device.noise_sigma_mhz == 0:
        return reads
    with np.errstate(over="ignore"):  # a subnormal sigma's gaps overflow to +-inf
        threshold = np.broadcast_to((f2 - f1) / (device.noise_sigma_mhz * np.sqrt(2)), shape)
    uncertain = np.abs(threshold) < CERTAIN_SD
    reads[uncertain] = rng.standard_normal(np.count_nonzero(uncertain)) > threshold[uncertain]
    return reads


def reliability_by_read_arrays(device, challenge, n_reevals, rng):
    """fom.reliability from every race's ones over noisy_reads_by_mask's
    reads, certain races included: a race read as 1 in k of n reads adds
    k * (n - k), summed over each row's bits."""
    ones = noisy_reads_by_mask(device, challenge, rng, n_reevals).sum(axis=-2, dtype=np.int64)
    total = (ones * (n_reevals - ones)).sum(axis=-1)
    n_pairs = n_reevals * (n_reevals - 1) // 2
    return 100.0 * total / (n_pairs * challenge.shape[-1])


def uniqueness_by_pairs(mat):
    """fom.uniqueness as a sum, pair by pair, of each device pair's mean of
    unequal bits."""
    total, n_pairs = 0.0, 0
    for a in range(len(mat)):
        for b in range(a + 1, len(mat)):
            total += float((mat[a] != mat[b]).mean())
            n_pairs += 1
    return 100.0 * total / n_pairs


def correlation_by_pairs(mat):
    """fom.mean_abs_correlation pair by pair: each pair's stds, and the
    mean of the product of its two centered +-1 vectors."""
    flat = mat.reshape(mat.shape[0], -1).astype(np.float64) * 2.0 - 1.0
    vals = []
    for a in range(len(flat)):
        for b in range(a + 1, len(flat)):
            sa, sb = flat[a].std(), flat[b].std()
            if sa == 0.0 or sb == 0.0:
                continue
            cov = float(((flat[a] - flat[a].mean()) * (flat[b] - flat[b].mean())).mean())
            vals.append(abs(cov / (sa * sb)))
    return float(np.mean(vals)) if vals else 0.0
