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
candidates is screened as arrays: its reads come in rounds, one read of
every live candidate a round, each round one draw for the chunk's uncertain
races (puf.uncertain_races); screen_challenge then judges candidate by
candidate in draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .puf import PufDevice, arbiter_bits, selected_freqs, uncertain_races, uncertain_reads


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
    gets equal weight. A pair adds its unequal bits' count / bits, in order.
    """
    _check_matrix(mat)
    pairs = list(combinations(range(len(mat)), 2))
    return 100.0 * sum(int(np.count_nonzero(mat[a] != mat[b])) / mat[0].size
                       for a, b in pairs) / len(pairs)


def reliability(device: PufDevice, challenge: np.ndarray, n_reevals: int,
                rng: np.random.Generator) -> float | np.ndarray:
    """Mean pairwise Hamming distance among repeated noisy reads of one
    (2, n_bits) challenge row, in percent, or of each row of a stack of them.

    Every row's n_reevals reads are drawn from rng in one call, row by row.
    A bit read as 1 in k of n reads disagrees in k * (n - k) of the read
    pairs, so the sum of that over bits is the pairwise distance total. A
    certain race has k in {0, n}: only puf.uncertain_reads' races count.
    """
    if n_reevals < 2:
        raise ValueError(f"n_reevals must be >= 2, got {n_reevals}")
    f1, f2 = selected_freqs(device, challenge)
    at, ones = uncertain_reads(device, f1, f2, rng, n_reevals)
    k = ones.sum(axis=0, dtype=np.int64)
    # a row's races are one run of at: its total is a difference of running sums
    end = np.bincount(at // f1.shape[-1], minlength=math.prod(f1.shape[:-1])).cumsum()
    running = np.concatenate([[0], (k * (n_reevals - k)).cumsum()])
    total = np.diff(running[end], prepend=0).reshape(f1.shape[:-1])
    return 100.0 * total / (n_reevals * (n_reevals - 1) // 2 * challenge.shape[-1])


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
    ideal population. Each vector's std is taken once, then it is centered.
    """
    _check_matrix(mat)
    flat = mat.reshape(mat.shape[0], -1).astype(np.float64) * 2.0 - 1.0
    stds = [row.std() for row in flat]
    for row in flat:
        row -= row.mean()
    # a constant response vector has std 0 and no correlation: its pairs are skipped
    vals = [abs(float((flat[a] * flat[b]).mean()) / (stds[a] * stds[b]))
            for a, b in combinations(range(len(flat)), 2) if stds[a] and stds[b]]
    return float(np.mean(vals)) if vals else 0.0


def screen_challenge(in_band: bool, worst_flips: int, policy: ScreeningPolicy) -> ScreeningResult:
    """The verdict on one candidate of a chunk screen_pool screens, from what
    screen_pool measured: whether the randomness of its noiseless bits is
    inside the policy band, and the most bits any of its noisy reads flipped
    (0 when it drew none). It passes when it is in band and no read flipped
    more than max_unreliable_bits bits."""
    return ScreeningResult(in_band and worst_flips <= policy.max_unreliable_bits)


def screen_pool(device: PufDevice, chunk: np.ndarray, policy: ScreeningPolicy,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Screen a chunk of candidates, the rows of a (count, 2, n_bits)
    non-negative selector array, and return the kept row indices and their
    reference bits, a (kept, n_bits) bool array.

    The chunk is judged as arrays: one gather per bank (ChallengeError past
    a bank), the reference bits in one compare, the randomness band in one
    compare of each row's randomness(), and the in-band rows' races from
    one puf.uncertain_races call, flat, row by row, in bit order; every
    other race reads its reference bit and never flips.
    The reads then come in rounds: each round draws one read for every
    in-band row still alive, in row order, as one standard_normal(races)
    draw from rng for the live rows' uncertain races, and counts each row's
    flips with one bincount. A row drops out at its first read that flips
    more than max_unreliable_bits bits, and its races leave the flat
    arrays. The rounds end after n_screen_reevals or when no uncertain race
    is left, so a row draws no read past its first failing one, and a band
    reject, a row of certain races, or any row of a noiseless device, draws
    none. screen_challenge then gives each row's verdict, band rejects
    included. A round holds at most the chunk's races: a large pool is
    screened puf.CHUNK_ROWS rows a call.
    """
    f1, f2 = selected_freqs(device, chunk)
    refs = arbiter_bits(f1, f2)
    rnd = randomness(refs)
    low, high = policy.randomness_band
    in_band = (low <= rnd) & (rnd <= high)
    worst = np.zeros(len(chunk), dtype=np.int64)
    live = in_band.nonzero()[0]
    at, thresholds = uncertain_races(device, f1[live], f2[live])
    row = at // chunk.shape[-1]  # each uncertain race's row among the live ones
    race_refs = refs[live].ravel()[at]
    for _ in range(policy.n_screen_reevals):
        if not len(thresholds):
            break
        flipped = (rng.standard_normal(len(thresholds)) > thresholds) != race_refs
        flips = np.bincount(row[flipped], minlength=len(live))
        worst[live] = np.maximum(worst[live], flips)
        alive = flips <= policy.max_unreliable_bits
        if not alive.all():
            stays = alive[row]
            row = (alive.cumsum() - 1)[row[stays]]
            thresholds, race_refs, live = thresholds[stays], race_refs[stays], live[alive]
    kept = [r for r, (ok, flips) in enumerate(zip(in_band.tolist(), worst.tolist()))
            if screen_challenge(ok, flips, policy).accepted]
    kept = np.array(kept, dtype=np.intp)
    return kept, refs[kept]
