"""Simulated hybrid oscillator-arbiter PUF.

A device owns two banks of ring oscillators. Manufacturing variation fixes
each oscillator's natural frequency once, at fabrication time, by drawing
from a normal distribution. A challenge names one oscillator from each bank
per response bit; evaluating the challenge races the two oscillators and an
arbiter emits 1 when the first bank's oscillator is faster. Thermal noise
jitters every race, so repeated evaluations of the same challenge can
disagree on bits whose frequency gap is small. A noisy read draws one
standard normal per bit from its caller's generator (see noisy_reads), so a
caller that reads in a fixed order from one generator fixes every read;
ReadAhead draws reads ahead in blocks and gives back what it does not use,
so the generator ends where reading one at a time leaves it. A challenge
is one (2, n_bits) int64 selector row: bit k races set1[row[0, k]] against
set2[row[1, k]]. random_challenge draws them a chunk at a time, as one
(count, 2, n_bits) array, and every function here that takes selectors
takes a row or any stack of rows.

Frequencies are in MHz and are rounded to 1e-6 MHz (FREQ_DECIMALS) at
manufacture. The rounding is part of what a seed manufactures: every stored
reference response, and so every artifact built from one, depends on it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ChallengeError, ConfigError

DEVICE_ID_BITS = 48
DEVICE_ID_HEX_DIGITS = DEVICE_ID_BITS // 4
RESPONSE_BITS = 128  # bits of every enrolled response, and so of every auth tag's key
FREQ_DECIMALS = 6


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


@dataclass(frozen=True, eq=False)
class Response:
    """An ordered bit vector produced by evaluating one challenge.

    bits is a one-dimensional uint8 array of 0s and 1s; a bool array, as
    arbiter_bits and noisy_reads give, is taken as a uint8 copy."""

    bits: np.ndarray
    _packed: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bits = self.bits
        if bits.ndim != 1 or len(bits) == 0:
            raise ValueError("response bits must be a non-empty one-dimensional array")
        if bits.dtype == np.bool_:
            # 0 or 1 by type; a copy, as cheap as a view and without a base to keep alive
            bits = bits.astype(np.uint8)
            object.__setattr__(self, "bits", bits)
        elif bits.dtype != np.uint8 or bits.max() > 1:
            raise ValueError("response bits must be bool, or uint8 0 or 1")
        bits.setflags(write=False)
        object.__setattr__(self, "_packed", np.packbits(bits).tobytes())

    @property
    def n_bits(self) -> int:
        return len(self.bits)

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

    @cached_property
    def max_freq_mhz(self) -> float:
        """The fastest oscillator: every race's gap |f2 - f1| is below it."""
        return float(max(self.set1_freqs.max(), self.set2_freqs.max()))


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


def selected_freqs(device: PufDevice, selectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies non-negative selectors race, one gather per bank:
    (set1, set2), each of the selectors' shape less its bank axis, so for a
    (2, n_bits) row, a (count, 2, n_bits) chunk or any stack of rows.
    Raises ChallengeError when they select past the device's banks.

    Precondition, not checked: every selector is >= 0. Every row in this
    package comes from random_challenge, which draws in [0, bank_size); a
    negative selector would read from the bank's end, as numpy indexing
    does. reference_response and fom.reliability gather through here
    hundreds of times a run, so no call pays for a sign check."""
    # selectors are non-negative, so numpy's own bounds check is the range check
    try:
        return device.set1_freqs[selectors[..., 0, :]], device.set2_freqs[selectors[..., 1, :]]
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


def read_thresholds(device: PufDevice, f1: np.ndarray, f2: np.ndarray) -> np.ndarray | None:
    """Each race's noisy-read threshold (f2 - f1) / (sigma * sqrt 2), in one
    division of the raced frequencies' shape; None for a noiseless device,
    whose reads draw nothing. A gap too large for a subnormal sigma becomes
    +-inf, a certain bit, without an overflow warning."""
    if device.noise_sigma_mhz == 0:
        return None
    scale = device.noise_sigma_mhz * math.sqrt(2)
    if device.max_freq_mhz < scale * (sys.float_info.max / 2):  # no quotient overflows
        return (f2 - f1) / scale
    with np.errstate(over="ignore"):
        return (f2 - f1) / scale


def noisy_reads(device: PufDevice, challenge: np.ndarray, rng: np.random.Generator,
                n_reads: int | None = None) -> np.ndarray:
    """One noisy read of a challenge row's races as an (n_bits,) bool array,
    or n_reads of them as an (n_reads, n_bits) array.

    Both oscillators of a race get independent N(0, sigma^2) jitter, so
    f1 + j1 > f2 + j2 exactly when z = (j1 - j2) / (sigma * sqrt 2), a
    standard normal, exceeds the race's read_thresholds. A read therefore
    draws one standard normal per bit from rng, all of them in one draw of
    that shape, so n reads in one call are the n reads of n calls; screening
    compares its chunk's reads with the same thresholds. A noiseless device
    draws nothing: each of its reads is its reference. Raises
    ChallengeError when the challenge selects past the device's banks.
    """
    f1, f2 = selected_freqs(device, challenge)
    threshold = read_thresholds(device, f1, f2)
    shape = f1.shape if n_reads is None else (n_reads,) + f1.shape
    if threshold is None:
        return np.broadcast_to(arbiter_bits(f1, f2), shape)
    return rng.standard_normal(shape) > threshold


# reads a ReadAhead draws at a time, and the most it serves at once; enrollment
# timed no faster with blocks of 12, 24, 32 or 64
_READ_BLOCK = 16


class ReadAhead:
    """Noisy-read normals drawn from rng ahead of their use, _READ_BLOCK
    reads of n_bits normals a block, and handed out in order.

    peek(n) gives the next n unused reads' normals, at most a block's,
    drawing a block when the held ones fall short, so it holds at most the
    older block's unused tail and the newest block; use(k) marks the first
    k peeked reads used. The generator's state is kept from before each
    block, so settle() can give every unused read back: it restores the
    state from before the block that holds the first unused read and
    redraws the reads already used from it. rng then stands exactly where
    drawing the used reads one standard_normal(n_bits) at a time leaves it.
    Nothing else may draw from rng between a peek and the settle after it.
    """

    __slots__ = ("_rng", "_n_bits", "_blocks", "_used")

    def __init__(self, rng: np.random.Generator, n_bits: int) -> None:
        self._rng = rng
        self._n_bits = n_bits
        self._blocks: list[tuple[dict, np.ndarray]] = []  # (state before, block); two at most
        self._used = 0  # reads used from the first held block, always fewer than all

    def peek(self, n: int) -> np.ndarray:
        """The next min(n, _READ_BLOCK) unused reads as rows of n_bits normals; n >= 1."""
        n = min(n, _READ_BLOCK)
        blocks, start = self._blocks, self._used
        if len(blocks) * _READ_BLOCK - start < n:
            rng = self._rng
            blocks.append((rng.bit_generator.state,
                           rng.standard_normal((_READ_BLOCK, self._n_bits))))
        first = blocks[0][1]
        if start + n <= _READ_BLOCK:
            return first[start:start + n]
        return np.concatenate((first[start:], blocks[1][1][:start + n - _READ_BLOCK]))

    def use(self, k: int) -> None:
        """Mark the first k reads of the last peek used."""
        spent, self._used = divmod(self._used + k, _READ_BLOCK)
        del self._blocks[:spent]

    def settle(self) -> None:
        """Give back every unused read drawn ahead, and hold none."""
        if self._blocks:
            rng = self._rng
            rng.bit_generator.state = self._blocks[0][0]
            if self._used:
                rng.standard_normal((self._used, self._n_bits))
            self._blocks.clear()
            self._used = 0


def evaluate(device: PufDevice, challenge: np.ndarray, eval_seed: int) -> Response:
    """One noisy read of a challenge row on a device (see noisy_reads), drawn from
    np.random.default_rng([eval_seed]); eval_seed must be an integer in
    [0, 2**64)."""
    if (isinstance(eval_seed, bool) or not isinstance(eval_seed, (int, np.integer))
            or not 0 <= eval_seed < 1 << 64):
        raise ConfigError(f"eval_seed must be an integer in [0, 2**64), got {eval_seed!r}")
    return Response(noisy_reads(device, challenge, np.random.default_rng([eval_seed])))


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
    and, after the batch and in row order, is refilled in place from rng,
    need set1 then need set2 selectors a round. So each challenge is the
    first n_bits distinct pairs of an iid stream of pairs."""
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
    codes.sort(axis=1)
    # the bool sum fom.reliability also uses: any() would page in one more reduction loop
    repeats = (codes[:, 1:] == codes[:, :-1]).sum(axis=1, dtype=np.int64)
    for r in repeats.nonzero()[0].tolist():  # keep first occurrences, in draw order, and refill
        row = batch[r]
        chosen = dict.fromkeys((row[0] * bank_size + row[1]).tolist())
        while len(chosen) < n_bits:
            need = n_bits - len(chosen)  # most often 1: Python ints beat numpy calls
            ij = rng.integers(bank_size, size=2 * need).tolist()
            chosen.update(dict.fromkeys([i * bank_size + j for i, j in zip(ij[:need], ij[need:])]))
        np.divmod(np.fromiter(chosen, np.int64, n_bits), bank_size, out=(row[0], row[1]))
    return batch


def challenge_chunks(bank_size: int, n_bits: int, count: int,
                     rng: np.random.Generator) -> Iterator[np.ndarray]:
    """count challenges from random_challenge, CHUNK_ROWS a call, each
    chunk drawn when it is asked for: a caller that reads from rng between
    chunks reads after one chunk's draw and before the next's."""
    for start in range(0, count, CHUNK_ROWS):
        yield random_challenge(bank_size, n_bits, min(CHUNK_ROWS, count - start), rng)
