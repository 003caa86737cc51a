"""Figures of merit and challenge screening.

Three population statistics summarize how well a device population behaves
as a fingerprint source:

* uniqueness: mean pairwise inter-device Hamming distance, ideally 50%,
* reliability: mean pairwise intra-device Hamming distance across repeated
  noisy reads, ideally 0%,
* randomness: fraction of 1-bits in a response, ideally 50%.

Screening applies the enrollment filter: a challenge is kept only when its
noiseless response is reasonably balanced and repeated noisy reads stay
within a small Hamming distance of that noiseless reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .puf import Challenge, NoisyRace, PufDevice, Response


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
    reason: Optional[str]  # None when accepted, else "randomness" or "stability"
    randomness_pct: float
    reference: np.ndarray  # the noiseless bits, as a bool array


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


def reliability(device: PufDevice, challenge: Challenge, n_reevals: int,
                rng: np.random.Generator) -> float:
    """Mean pairwise Hamming distance among repeated noisy reads, in percent.

    The n_reevals reads are drawn from rng in one call. A bit read as 1 in
    k of n reads disagrees in k * (n - k) of the read pairs, so the sum of
    that over bits is the pairwise distance total.
    """
    if n_reevals < 2:
        raise ValueError(f"n_reevals must be >= 2, got {n_reevals}")
    ones = NoisyRace(device, challenge).read(rng, n_reevals).sum(axis=0, dtype=np.int64)
    total = int((ones * (n_reevals - ones)).sum())
    n_pairs = n_reevals * (n_reevals - 1) // 2
    return 100.0 * total / (n_pairs * challenge.n_bits)


def randomness(response: Response) -> float:
    """Percentage of 1-bits in the response."""
    # the same float as 100 * bits.mean(): a float64 sum of 0/1 bits is exact
    return 100.0 * (np.count_nonzero(response.bits) / response.n_bits)


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


def screen_challenge(
    device: PufDevice,
    challenge: Challenge,
    policy: ScreeningPolicy,
    rng: np.random.Generator,
) -> ScreeningResult:
    """Decide whether a challenge is stable and balanced enough to enroll.

    The noiseless bits are the reference (a bool array; screen_pool stores
    a survivor's as its Response); the challenge passes when their
    randomness sits inside the policy band and each of n_screen_reevals
    noisy reads differs from the reference by at most max_unreliable_bits
    bits. The randomness check comes first and draws nothing; then reads
    0, 1, ... are drawn from rng one at a time, and screening stops at the
    first failing read, so a rejected challenge leaves the rest of its
    reads undrawn.
    """
    race = NoisyRace(device, challenge)
    ref = race.reference
    # randomness(reference), from the bool bits: the same float
    rnd = 100.0 * (np.count_nonzero(ref) / len(ref))
    low, high = policy.randomness_band
    if not low <= rnd <= high:
        return ScreeningResult(False, "randomness", rnd, ref)
    for _ in range(policy.n_screen_reevals):
        if np.count_nonzero(race.read(rng) != ref) > policy.max_unreliable_bits:
            return ScreeningResult(False, "stability", rnd, ref)
    return ScreeningResult(True, None, rnd, ref)


def screen_pool(
    device: PufDevice,
    candidates: Iterable[Challenge],
    policy: ScreeningPolicy,
    rng: np.random.Generator,
) -> list[tuple[Challenge, Response]]:
    """Screen candidate challenges in order, reading from rng, and return
    the survivors with their reference responses; only a survivor's bits
    become a Response. A challenge equal to one already kept is skipped
    unscreened: an exact duplicate never enrolls twice. Each candidate is
    taken from the iterable after the one before it is screened, so the
    candidates may be drawn lazily from rng too, as registry.enroll draws
    them a chunk at a time."""
    kept: dict[Challenge, np.ndarray] = {}
    for challenge in candidates:
        if challenge not in kept:
            result = screen_challenge(device, challenge, policy, rng)
            if result.accepted:
                kept[challenge] = result.reference
    return [(challenge, Response(bits)) for challenge, bits in kept.items()]
