"""Figures of merit and challenge screening.

Three population statistics summarize how well a device population behaves
as a fingerprint source:

* uniqueness: mean pairwise inter-device Hamming distance, ideally 50%,
* reliability: mean pairwise intra-device Hamming distance across repeated
  noisy reads, ideally 0%,
* randomness: fraction of 1-bits in a response, ideally 50%.

Screening applies the enrollment filter: a challenge is kept only when its
noiseless response is reasonably balanced and repeated noisy reads stay
within a small Hamming distance of that noiseless reference. A chunk of
candidates is screened as arrays, up to each candidate's reads, which are
judged candidate by candidate in draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .puf import PufDevice, ReadAhead, arbiter_bits, noisy_reads, read_thresholds, selected_freqs


@dataclass(frozen=True)
class ScreeningPolicy:
    """Acceptance rules applied to each candidate challenge at enrollment."""

    randomness_band: tuple[float, float] = (45.0, 55.0)
    max_unreliable_bits: int = 3
    n_screen_reevals: int = 11

    def __post_init__(self) -> None:
        low, high = self.randomness_band
        if not (0.0 <= low < high <= 100.0):
            raise ConfigError(f"randomness_band must satisfy 0 <= low < high <= 100: {self.randomness_band}")
        if self.max_unreliable_bits < 0:
            raise ConfigError(f"max_unreliable_bits must be >= 0, got {self.max_unreliable_bits}")
        if self.n_screen_reevals < 1:
            raise ConfigError(f"n_screen_reevals must be >= 1, got {self.n_screen_reevals}")


class ScreeningResult(NamedTuple):
    """Outcome of screening one challenge against one device."""

    accepted: bool


def _check_matrix(mat: np.ndarray) -> None:
    if not (isinstance(mat, np.ndarray) and mat.ndim == 3 and mat.dtype == np.uint8):
        raise ValueError("responses must be a uint8 array of shape (devices, challenges, bits)")
    if mat.shape[0] < 2:
        raise ValueError("uniqueness needs at least two devices")
    if mat.shape[1] == 0:
        raise ValueError("uniqueness needs at least one challenge per device")
    if mat.shape[2] == 0:
        raise ValueError("responses must contain at least one bit")
    if mat.max() > 1:
        raise ValueError("response bits must be 0 or 1")


def uniqueness(mat: np.ndarray) -> float:
    """Mean pairwise inter-device Hamming distance, as a percentage of bits.

    mat[d, c] holds device d's response bits on challenge c. Averages over
    all unordered device pairs and all challenges; every pair and challenge
    gets equal weight.
    """
    _check_matrix(mat)
    n_devices = mat.shape[0]
    total = 0.0
    n_pairs = 0
    for a in range(n_devices):
        for b in range(a + 1, n_devices):
            total += float((mat[a] != mat[b]).mean())
            n_pairs += 1
    return 100.0 * total / n_pairs


def reliability(device: PufDevice, challenge: np.ndarray, n_reevals: int,
                rng: np.random.Generator) -> float:
    """Mean pairwise Hamming distance among repeated noisy reads of one
    (2, n_bits) challenge row, in percent.

    The n_reevals reads are drawn from rng in one call. A bit read as 1 in
    k of n reads disagrees in k * (n - k) of the read pairs, so the sum of
    that over bits is the pairwise distance total.
    """
    if n_reevals < 2:
        raise ValueError(f"n_reevals must be >= 2, got {n_reevals}")
    ones = noisy_reads(device, challenge, rng, n_reevals).sum(axis=0, dtype=np.int64)
    total = int((ones * (n_reevals - ones)).sum())
    n_pairs = n_reevals * (n_reevals - 1) // 2
    return 100.0 * total / (n_pairs * challenge.shape[-1])


def randomness(bits: np.ndarray) -> float | np.ndarray:
    """Percentage of 1-bits in a response's bits, or in each row of a
    (responses, n_bits) array of them."""
    # the same float as 100 * bits.mean(): a float64 sum of 0/1 bits is exact
    return 100.0 * (np.count_nonzero(bits, axis=-1) / bits.shape[-1])


def mean_abs_correlation(mat: np.ndarray) -> float:
    """Mean absolute pairwise bit correlation between devices.

    mat[d, c] holds device d's response bits on challenge c. Each device's
    responses are flattened to one long ±1 vector; the value is the average
    |Pearson correlation| over unordered device pairs. Near zero for an
    ideal population.
    """
    _check_matrix(mat)
    flat = mat.reshape(mat.shape[0], -1).astype(np.float64) * 2.0 - 1.0
    n_devices = flat.shape[0]
    vals = []
    for a in range(n_devices):
        for b in range(a + 1, n_devices):
            sa, sb = flat[a].std(), flat[b].std()
            if sa == 0.0 or sb == 0.0:
                continue  # constant response vector: correlation undefined
            cov = float(((flat[a] - flat[a].mean()) * (flat[b] - flat[b].mean())).mean())
            vals.append(abs(cov / (sa * sb)))
    return float(np.mean(vals)) if vals else 0.0


def screen_challenge(reference: np.ndarray, in_band: bool, threshold: np.ndarray | None,
                     policy: ScreeningPolicy, reads: ReadAhead) -> ScreeningResult:
    """The verdict on one candidate of a chunk screen_pool screens: its
    noiseless bits (a bool array), whether their randomness is inside the
    policy band, and its read thresholds (None on a noiseless device). A
    band reject, and any candidate of a noiseless device, is judged without
    a read. Otherwise the candidate passes when each of n_screen_reevals
    noisy reads from reads differs from the reference by at most
    max_unreliable_bits bits. Reads are judged up to a block at a time and
    used up to the first failing read, so once reads is settled its
    generator stands where reading one at a time and stopping there leaves it.
    """
    if not in_band or threshold is None:
        return ScreeningResult(in_band)
    left = policy.n_screen_reevals
    while left:
        # bits each read flips, for a block of reads at once; a list, scanned cheaper than an array
        flips = ((reads.peek(left) > threshold) != reference).sum(axis=1).tolist()
        failed = [k for k, n in enumerate(flips) if n > policy.max_unreliable_bits]
        if failed:
            reads.use(failed[0] + 1)
            return ScreeningResult(False)
        reads.use(len(flips))
        left -= len(flips)
    return ScreeningResult(True)


def screen_pool(device: PufDevice, chunk: np.ndarray, policy: ScreeningPolicy,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Screen a chunk of candidates, the rows of a (count, 2, n_bits)
    non-negative selector array, each once and in order, and return the
    kept row indices and their reference bits, a (kept, n_bits) bool array.

    The chunk is judged as arrays: one gather per bank (ChallengeError past
    a bank), the reference bits in one compare, the randomness band in one
    compare of each row's randomness(), and the in-band rows' thresholds in
    one division. screen_challenge then judges each row, band rejects
    included, reading from rng through one puf.ReadAhead that is settled
    when this returns, so rng stands where reading one read at a time
    leaves it. Gathers are the chunk's size: a large pool is screened
    puf.CHUNK_ROWS rows a call.
    """
    f1, f2 = selected_freqs(device, chunk)
    refs = arbiter_bits(f1, f2)
    rnd = randomness(refs)
    low, high = policy.randomness_band
    in_band = (low <= rnd) & (rnd <= high)
    thresholds = read_thresholds(device, f1[in_band], f2[in_band])
    in_band_thresholds = iter(() if thresholds is None else thresholds)
    reads = ReadAhead(rng, chunk.shape[-1])
    kept = []
    for r, ok in enumerate(in_band.tolist()):
        threshold = next(in_band_thresholds, None) if ok else None
        if screen_challenge(refs[r], ok, threshold, policy, reads).accepted:
            kept.append(r)
    reads.settle()
    kept = np.array(kept, dtype=np.intp)
    return kept, refs[kept]
