"""Simulated hybrid oscillator-arbiter PUF.

A device owns two banks of ring oscillators. Manufacturing variation fixes
each oscillator's natural frequency once, at fabrication time, by drawing
from a normal distribution. A challenge names one oscillator from each bank
per response bit; evaluating the challenge races the two oscillators and an
arbiter emits 1 when the first bank's oscillator is faster. Thermal noise
jitters every race, so repeated evaluations of the same challenge can
disagree on bits whose frequency gap is small. A noisy read draws one
standard normal from its caller's generator for each uncertain race, one
within CERTAIN_SD standard deviations of flipping (uncertain_races alone
holds that rule), reads every other race as its reference bit, and draws
nothing when no race is uncertain; so a caller that reads in a fixed order
from one generator fixes every read. A challenge is one
(2, n_bits) selector row: bit k races set1[row[0, k]] against
set2[row[1, k]]. random_challenge draws them a chunk at a time, as one
(count, 2, n_bits) int64 array, and refills the rows that repeat a pair in
whole rounds, one draw a round; a stored row is held in selector_dtype.
Every function here that takes selectors takes a row or any stack of rows,
of any integer dtype.

Frequencies are in MHz and are rounded to 1e-6 MHz (FREQ_DECIMALS) at
manufacture. The rounding is part of what a seed manufactures: every stored
reference response, and so every artifact built from one, depends on it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ChallengeError, ConfigError

DEVICE_ID_BITS = 48
DEVICE_ID_HEX_DIGITS = DEVICE_ID_BITS // 4
RESPONSE_BITS = 128  # bits of every enrolled response, and so of every auth tag's key
FREQ_DECIMALS = 6
# a race whose read threshold is this many standard deviations from 0 reads its
# reference bit without a draw: it would flip with probability below
# Phi(-8) ~ 6.2e-16
CERTAIN_SD = 8.0


@lru_cache(maxsize=256, typed=True)  # a run's writers name its few node ids thousands of times
def format_device_id(device_id: int) -> str:
    """Render a 48-bit device id as 12 lowercase hex digits."""
    if not 0 <= device_id < (1 << DEVICE_ID_BITS):
        raise ValueError(f"device_id out of 48-bit range: {device_id}")
    return format(device_id, f"0{DEVICE_ID_HEX_DIGITS}x")


@dataclass(frozen=True)
class PufConfig:
    """Manufacturing and evaluation parameters for a device population.

    freq_sigma_mhz and noise_sigma_mhz defaults are calibrated together:
    the process spread against the per-race jitter sets both the screening
    yield (roughly a quarter of random challenges survive the default
    screening policy) and the re-evaluation error rate (a few percent of
    bits flip between noisy reads of an unscreened challenge).
    """

    n_oscillators: int = 512
    freq_mean_mhz: float = 250.0
    freq_sigma_mhz: float = 5.0
    noise_sigma_mhz: float = 0.245
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if self.n_oscillators < 2 or self.n_oscillators % 2 != 0:
            raise ConfigError(f"n_oscillators must be even and >= 2, got {self.n_oscillators}")
        if not (math.isfinite(self.freq_mean_mhz) and self.freq_mean_mhz > 0):
            raise ConfigError(f"freq_mean_mhz must be finite and positive, got {self.freq_mean_mhz}")
        if not (math.isfinite(self.freq_sigma_mhz) and self.freq_sigma_mhz > 0):
            raise ConfigError(f"freq_sigma_mhz must be finite and positive, got {self.freq_sigma_mhz}")
        if not (math.isfinite(self.noise_sigma_mhz) and self.noise_sigma_mhz >= 0):
            raise ConfigError(f"noise_sigma_mhz must be finite and >= 0, got {self.noise_sigma_mhz}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        bank = self.n_oscillators // 2
        if RESPONSE_BITS > bank * bank:
            raise ConfigError(
                f"a {bank}-per-bank device has {bank * bank} distinct oscillator "
                f"pairs, fewer than the {RESPONSE_BITS} bits of a response"
            )

    @property
    def bank_size(self) -> int:
        return self.n_oscillators // 2


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Response:
    """An ordered bit vector produced by evaluating one challenge, held as
    n_bits and its bits packed MSB-first: no bit array outlives the build.

    Built from a non-empty one-dimensional array of bools, as arbiter_bits
    gives, or of uint8 0s and 1s; the array is read, never kept or frozen."""

    n_bits: int
    _packed: bytes = field(repr=False)

    def __init__(self, bits: np.ndarray) -> None:
        if bits.ndim != 1 or len(bits) == 0:
            raise ValueError("response bits must be a non-empty one-dimensional array")
        if bits.dtype != np.bool_ and (bits.dtype != np.uint8 or bits.max() > 1):
            raise ValueError("response bits must be bool, or uint8 0 or 1")
        object.__setattr__(self, "n_bits", len(bits))
        object.__setattr__(self, "_packed", np.packbits(bits).tobytes())

    @property
    def bits(self) -> np.ndarray:
        """The bits as a fresh read-only uint8 array of 0s and 1s."""
        bits = np.unpackbits(np.frombuffer(self._packed, np.uint8), count=self.n_bits)
        bits.setflags(write=False)
        return bits

    def packed(self) -> bytes:
        """Pack bits MSB-first: bit 0 lands in the high bit of byte 0."""
        return self._packed

    def hex(self) -> str:
        return self.packed().hex()


@dataclass(frozen=True, eq=False)
class PufDevice:
    """One manufactured device: two frozen frequency banks plus its jitter level."""

    device_id: int
    set1_freqs: np.ndarray
    set2_freqs: np.ndarray
    noise_sigma_mhz: float

    def __post_init__(self) -> None:
        if not 0 <= self.device_id < (1 << DEVICE_ID_BITS):
            raise ConfigError(f"device_id out of 48-bit range: {self.device_id}")
        for arr in (self.set1_freqs, self.set2_freqs):
            if arr.ndim != 1 or arr.dtype != np.float64:
                raise ConfigError("frequency banks must be one-dimensional float64 arrays")
            if len(arr) == 0 or not (np.isfinite(arr) & (arr > 0)).all():
                raise ConfigError("frequency banks must be non-empty, finite and strictly positive")
            arr.setflags(write=False)
        if len(self.set1_freqs) != len(self.set2_freqs):
            raise ConfigError("frequency banks must have equal size")
        if not (math.isfinite(self.noise_sigma_mhz) and self.noise_sigma_mhz >= 0):
            raise ConfigError(f"noise_sigma_mhz must be finite and >= 0, got {self.noise_sigma_mhz}")

    @property
    def bank_size(self) -> int:
        return len(self.set1_freqs)


def manufacture(config: PufConfig, device_id: int, device_seed: int) -> PufDevice:
    """Fabricate a device deterministically from (config.rng_seed, device_seed).

    All oscillators are drawn in one pass and then split between the banks,
    so the two banks are statistically identical.
    """
    if device_seed < 0:
        raise ConfigError(f"device_seed must be >= 0, got {device_seed}")
    rng = np.random.default_rng([config.rng_seed, device_seed])
    freqs = rng.normal(config.freq_mean_mhz, config.freq_sigma_mhz, size=config.n_oscillators)
    freqs = np.round(freqs, FREQ_DECIMALS)
    if (freqs <= 0).any():
        raise ConfigError(
            "manufacture drew a non-positive frequency; "
            "freq_sigma_mhz is too large relative to freq_mean_mhz"
        )
    half = config.bank_size
    return PufDevice(
        device_id=device_id,
        set1_freqs=freqs[:half].copy(),
        set2_freqs=freqs[half:].copy(),
        noise_sigma_mhz=config.noise_sigma_mhz,
    )


def selector_dtype(bank_size: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every selector of a
    bank_size bank, 0 to bank_size - 1: uint8 up to 256 oscillators a bank,
    uint16 up to 65,536. Stored challenges use it; draws stay int64."""
    return np.min_scalar_type(bank_size - 1)


def selected_freqs(device: PufDevice, selectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies non-negative selectors race, one gather per bank:
    (set1, set2), each of the selectors' shape less its bank axis, so for a
    (2, n_bits) row, a (count, 2, n_bits) chunk or any stack of rows.
    Raises ChallengeError when they select past the device's banks.

    Precondition, not checked: every selector is >= 0. Every row in this
    package comes from random_challenge, which draws in [0, bank_size); a
    negative one reads from the bank's end, as ndarray.take does (below
    -bank_size it raises). reference_response and fom.reliability gather
    through here hundreds of times a run, so no call pays for a sign check."""
    # selectors are non-negative, so take's own bounds check is the range check
    try:
        return device.set1_freqs.take(selectors[..., 0, :]), device.set2_freqs.take(selectors[..., 1, :])
    except IndexError:
        raise ChallengeError(
            f"challenge selects oscillators past bank size {device.bank_size}"
        ) from None


def arbiter_bits(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """The arbiter's bit per race of f1 against f2, as a bool array.

    Ties (exactly equal frequencies) resolve to 0; an arbiter needs a strict
    win by the first bank to emit 1.
    """
    return f1 > f2


def reference_response(device: PufDevice, challenge: np.ndarray) -> Response:
    """Noiseless evaluation: a pure function of the device and the challenge row."""
    return Response(arbiter_bits(*selected_freqs(device, challenge)))


def uncertain_races(device: PufDevice, f1: np.ndarray,
                    f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The races of f1 against f2 (a row's raced frequencies or a stack of
    them) that a noisy read draws a normal for, as flat indices into f1's
    shape, row by row in bit order, and their thresholds (f2 - f1) / (sigma
    * sqrt 2): with N(0, sigma^2) jitter on both oscillators, a race reads 1
    when a standard normal exceeds its threshold. A race is uncertain when
    |threshold| < CERTAIN_SD; a subnormal sigma's +-inf and a noiseless
    device's +-inf or nan are not, and do not warn."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        threshold = (f2 - f1) / (device.noise_sigma_mhz * math.sqrt(2))
        at = np.flatnonzero(np.abs(threshold) < CERTAIN_SD)
    return at, threshold.ravel()[at]


def uncertain_reads(device: PufDevice, f1: np.ndarray, f2: np.ndarray,
                    rng: np.random.Generator, n_reads: int) -> tuple[np.ndarray, np.ndarray]:
    """n_reads reads of the uncertain_races of f1 against f2 from one
    standard_normal(n_reads * races) draw, read by read as a screening
    round reads: each read takes the next normal of every uncertain race,
    so n reads in one call are n one-read calls in turn. Returns the races'
    flat indices into f1's shape and an (n_reads, races) bool array: read i
    of race g is 1 when its normal exceeds the race's threshold."""
    at, threshold = uncertain_races(device, f1, f2)
    reads = np.empty((n_reads, len(at)), dtype=bool)  # too large to hold fails here, undrawn
    if len(at):  # no uncertain race, no draw
        np.greater(rng.standard_normal(reads.size).reshape(reads.shape), threshold, out=reads)
    return at, reads


def evaluate(device: PufDevice, challenge: np.ndarray, eval_seed: int) -> Response:
    """One noisy read of a challenge row: its reference bits with one
    uncertain_reads read from np.random.default_rng([eval_seed]) written in;
    eval_seed must be an integer in [0, 2**64). A stack of rows raises
    Response's ValueError."""
    if (isinstance(eval_seed, bool) or not isinstance(eval_seed, (int, np.integer))
            or not 0 <= eval_seed < 1 << 64):
        raise ConfigError(f"eval_seed must be an integer in [0, 2**64), got {eval_seed!r}")
    f1, f2 = selected_freqs(device, challenge)
    bits = arbiter_bits(f1, f2)
    at, ones = uncertain_reads(device, f1, f2, np.random.default_rng([eval_seed]), 1)
    bits.put(at, ones[0])  # put writes through flat indices, whatever bits' shape
    return Response(bits)


# largest bank random_challenge draws from: pair codes i * bank_size + j stay
# below 2**62, exact in int64 (one such bank is 2**31 float64s, 16 GiB)
_MAX_DRAW_BANK = 1 << 31
# challenges per random_challenge call in challenge_chunks, and rows per
# screening gather: at most this many unscreened candidates are alive at once
CHUNK_ROWS = 64


def random_challenge(bank_size: int, n_bits: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw count challenges of n_bits distinct oscillator pairs, each uniform
    over bank_size^2 choices, in one integers(bank_size, size=(count, 2, n_bits))
    draw, returned as it is: row r's set1 selectors, then its set2
    selectors, int64. A row that repeats a pair keeps its first occurrences
    and is refilled in place in rounds: each round is one integers call for
    every row still short, in row order, need set1 then need set2 selectors
    a row, until no row is short. Which draws a row keeps depends only on
    which draws are equal, so each challenge is uniform over ordered
    n_bits-tuples of distinct pairs."""
    if n_bits < 1:
        raise ChallengeError("challenge must select at least one oscillator pair")
    if bank_size > _MAX_DRAW_BANK:
        raise ChallengeError(f"cannot draw from banks larger than {_MAX_DRAW_BANK}, got {bank_size}")
    if n_bits > bank_size * bank_size:
        raise ChallengeError(
            f"cannot pick {n_bits} distinct pairs from {bank_size}x{bank_size} choices"
        )
    batch = rng.integers(bank_size, size=(count, 2, n_bits))
    codes = batch[:, 0] * bank_size  # pair (i, j) coded as i * bank_size + j
    codes += batch[:, 1]
    # g copies of a pair are g - 1 equal neighbours once sorted. A bool sum, as
    # fom.reliability's: any() would page in one more reduction loop
    ordered = np.sort(codes, axis=1)
    rows = (ordered[:, 1:] == ordered[:, :-1]).sum(axis=1, dtype=np.int64).nonzero()[0]
    chosen = list(map(dict.fromkeys, codes[rows].tolist()))  # first occurrences, in draw order
    short = chosen
    while short:  # a round: most needs are 1, so Python ints beat numpy calls
        needs = [n_bits - len(pairs) for pairs in short]
        ij = rng.integers(bank_size, size=2 * sum(needs)).tolist()
        at = 0
        for pairs, need in zip(short, needs):
            pairs.update(dict.fromkeys([i * bank_size + j for i, j in zip(
                ij[at:at + need], ij[at + need:at + 2 * need])]))
            at += 2 * need
        short = [pairs for pairs in short if len(pairs) < n_bits]
    batch[rows, 0], batch[rows, 1] = np.divmod(
        np.array([code for pairs in chosen for code in pairs], dtype=np.int64).reshape(
            len(rows), n_bits), bank_size)
    return batch


def challenge_chunks(bank_size: int, n_bits: int, count: int,
                     rng: np.random.Generator) -> Iterator[np.ndarray]:
    """count challenges from random_challenge, CHUNK_ROWS a call, each
    chunk drawn when it is asked for: a caller that reads from rng between
    chunks reads after one chunk's draw and before the next's."""
    for start in range(0, count, CHUNK_ROWS):
        yield random_challenge(bank_size, n_bits, min(CHUNK_ROWS, count - start), rng)
