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
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .puf import Challenge, PufDevice, Response, noisy_bits, reference_response, selected_freqs


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


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome of screening one challenge against one device."""

    accepted: bool
    reason: Optional[str]  # None when accepted, else "randomness" or "stability"
    randomness_pct: float
    worst_mismatch_bits: int
    reference: Response


def _response_matrix(responses_by_device: Sequence[Sequence[Response]]) -> np.ndarray:
    if len(responses_by_device) < 2:
        raise ValueError("uniqueness needs at least two devices")
    n_challenges = len(responses_by_device[0])
    if n_challenges == 0:
        raise ValueError("uniqueness needs at least one challenge per device")
    n_bits = responses_by_device[0][0].n_bits
    rows = []
    for device_responses in responses_by_device:
        if len(device_responses) != n_challenges:
            raise ValueError("every device must supply the same number of responses")
        for resp in device_responses:
            if resp.n_bits != n_bits:
                raise ValueError("all responses must have the same bit width")
        rows.append(np.stack([resp.bits for resp in device_responses]))
    return np.stack(rows)  # shape (devices, challenges, bits)


def uniqueness(responses_by_device: Sequence[Sequence[Response]]) -> float:
    """Mean pairwise inter-device Hamming distance, as a percentage of bits.

    Averages over all unordered device pairs and all challenges; every pair
    and challenge gets equal weight.
    """
    mat = _response_matrix(responses_by_device)
    n_devices = mat.shape[0]
    total = 0.0
    n_pairs = 0
    for a in range(n_devices):
        for b in range(a + 1, n_devices):
            total += float((mat[a] != mat[b]).mean())
            n_pairs += 1
    return 100.0 * total / n_pairs


def reliability(device: PufDevice, challenge: Challenge, n_reevals: int, words: np.ndarray) -> float:
    """Mean pairwise Hamming distance among repeated noisy reads, in percent.

    words holds one row of read_seeds words per read. A bit read as 1 in k
    of n reads disagrees in k * (n - k) of the read pairs, so the sum of
    that over bits is the pairwise distance total.
    """
    if n_reevals < 2:
        raise ValueError(f"n_reevals must be >= 2, got {n_reevals}")
    if len(words) < n_reevals:
        raise ValueError(f"need {n_reevals} read seeds, got {len(words)}")
    f1, f2 = selected_freqs(device, challenge)
    sigma = device.noise_sigma_mhz
    reads = np.stack([noisy_bits(f1, f2, sigma, words[k]) for k in range(n_reevals)])
    ones = reads.sum(axis=0, dtype=np.int64)
    total = int((ones * (n_reevals - ones)).sum())
    n_pairs = n_reevals * (n_reevals - 1) // 2
    return 100.0 * total / (n_pairs * challenge.n_bits)


def randomness(response: Response) -> float:
    """Percentage of 1-bits in the response."""
    return 100.0 * float(response.bits.mean())


def mean_abs_correlation(responses_by_device: Sequence[Sequence[Response]]) -> float:
    """Mean absolute pairwise bit correlation between devices.

    Each device's responses are flattened to one long ±1 vector; the value
    is the average |Pearson correlation| over unordered device pairs. Near
    zero for an ideal population.
    """
    mat = _response_matrix(responses_by_device)
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
    words: np.ndarray,
) -> ScreeningResult:
    """Decide whether a challenge is stable and balanced enough to enroll.

    The noiseless response is the stored reference; the challenge passes
    when that reference's randomness sits inside the policy band and each
    of n_screen_reevals noisy reads differs from the reference by at most
    max_unreliable_bits bits. Read k draws its jitter from words[k], one
    row of read_seeds words. Stops at the first failing read.
    """
    if len(words) < policy.n_screen_reevals:
        raise ValueError(f"need {policy.n_screen_reevals} read seeds, got {len(words)}")
    ref = reference_response(device, challenge)
    rnd = randomness(ref)
    low, high = policy.randomness_band
    if not (low <= rnd <= high):
        return ScreeningResult(False, "randomness", rnd, 0, ref)
    f1, f2 = selected_freqs(device, challenge)
    sigma = device.noise_sigma_mhz
    worst = 0
    for k in range(policy.n_screen_reevals):
        mismatch = int(np.count_nonzero(noisy_bits(f1, f2, sigma, words[k]) != ref.bits))
        worst = max(worst, mismatch)
        if mismatch > policy.max_unreliable_bits:
            return ScreeningResult(False, "stability", rnd, worst, ref)
    return ScreeningResult(True, None, rnd, worst, ref)


def screen_pool(
    device: PufDevice,
    candidates: Iterable[tuple[Challenge, np.ndarray]],
    policy: ScreeningPolicy,
) -> list[tuple[Challenge, Response]]:
    """Screen (challenge, read seed words) candidates in order and return
    the survivors with their reference responses. A challenge equal to one
    already kept is skipped unscreened: an exact duplicate never enrolls
    twice."""
    kept: dict[Challenge, Response] = {}
    for challenge, words in candidates:
        if challenge not in kept:
            result = screen_challenge(device, challenge, policy, words)
            if result.accepted:
                kept[challenge] = result.reference
    return list(kept.items())
