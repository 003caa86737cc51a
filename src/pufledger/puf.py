"""Simulated hybrid oscillator-arbiter PUF.

A device owns two banks of ring oscillators. Manufacturing variation fixes
each oscillator's natural frequency once, at fabrication time, by drawing
from a normal distribution. A challenge names one oscillator from each bank
per response bit; evaluating the challenge races the two oscillators and an
arbiter emits 1 when the first bank's oscillator is faster. Thermal noise
jitters every race, so repeated evaluations of the same challenge can
disagree on bits whose frequency gap is small. A noisy read draws one
standard normal per bit from its caller's generator (see NoisyRace), so a
caller that reads in a fixed order from one generator fixes every read.

Frequencies are in MHz and are rounded to 1e-6 MHz (FREQ_DECIMALS) at
manufacture. The rounding is part of what a seed manufactures: every stored
reference response, and so every artifact built from one, depends on it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ChallengeError, ConfigError

DEVICE_ID_BITS = 48
DEVICE_ID_HEX_DIGITS = DEVICE_ID_BITS // 4
RESPONSE_BITS = 128  # bits of every enrolled response, and so of every auth tag's key
FREQ_DECIMALS = 6


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
class Challenge:
    """Per-bit oscillator selectors: bit k races set1[set1_idx[k]] vs set2[set2_idx[k]]."""

    set1_idx: np.ndarray
    set2_idx: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.set1_idx, self.set2_idx):
            if arr.ndim != 1 or arr.dtype != np.int64:
                raise ChallengeError("selector arrays must be one-dimensional int64")
            arr.setflags(write=False)
        if len(self.set1_idx) != len(self.set2_idx):
            raise ChallengeError("selector arrays must have equal length")
        if len(self.set1_idx) == 0:
            raise ChallengeError("challenge must select at least one oscillator pair")
        if int(self.set1_idx.min()) < 0 or int(self.set2_idx.min()) < 0:
            raise ChallengeError("selector indices must be non-negative")
        # sorted by (set1, set2), equal pairs are neighbours; no index arithmetic, so exact
        order = np.lexsort((self.set2_idx, self.set1_idx))
        s1, s2 = self.set1_idx[order], self.set2_idx[order]
        if ((s1[1:] == s1[:-1]) & (s2[1:] == s2[:-1])).any():
            raise ChallengeError("challenge repeats an oscillator pair")

    @property
    def n_bits(self) -> int:
        return len(self.set1_idx)

    def __eq__(self, other: object) -> bool:
        """Equal when both select the same pairs in the same order (both
        selector arrays are int64, so equal bytes mean equal indices)."""
        if not isinstance(other, Challenge):
            return NotImplemented
        return (self.set1_idx.tobytes() == other.set1_idx.tobytes()
                and self.set2_idx.tobytes() == other.set2_idx.tobytes())

    def __hash__(self) -> int:
        return hash((self.set1_idx.tobytes(), self.set2_idx.tobytes()))


@dataclass(frozen=True, eq=False)
class Response:
    """An ordered bit vector produced by evaluating one challenge.

    bits is a one-dimensional uint8 array of 0s and 1s; a bool array, as
    arbiter_bits and NoisyRace.read give, is taken as a uint8 copy."""

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Response):
            return NotImplemented
        return self.n_bits == other.n_bits and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash(self.packed())


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

    @property
    def device_id_hex(self) -> str:
        return format_device_id(self.device_id)

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


def selected_freqs(device: PufDevice, challenge: Challenge) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies the challenge races, bit by bit: (set1, set2).
    Raises ChallengeError when it selects past the device's banks."""
    # selectors are non-negative, so numpy's own bounds check is the range check
    try:
        return device.set1_freqs[challenge.set1_idx], device.set2_freqs[challenge.set2_idx]
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


def reference_response(device: PufDevice, challenge: Challenge) -> Response:
    """Noiseless evaluation: a pure function of the device and the challenge."""
    return Response(arbiter_bits(*selected_freqs(device, challenge)))


class NoisyRace:
    """The races one challenge selects on one device, read with thermal jitter.

    Both oscillators of a race get independent N(0, sigma^2) jitter, so
    f1 + j1 > f2 + j2 exactly when z = (j1 - j2) / (sigma * sqrt 2), a
    standard normal, exceeds (f2 - f1) / (sigma * sqrt 2). A noisy read
    therefore draws one standard normal per bit and compares it with that
    threshold. The thresholds are computed at the race's first noisy read,
    so a race that is never read (a screening candidate rejected for its
    reference alone) computes none. A noiseless device draws nothing: each
    of its reads is its reference. Raises ChallengeError when the challenge
    selects past the device's banks.
    """

    __slots__ = ("reference", "_device", "_f1", "_f2", "_threshold")

    def __init__(self, device: PufDevice, challenge: Challenge) -> None:
        self._f1, self._f2 = selected_freqs(device, challenge)
        self.reference = arbiter_bits(self._f1, self._f2)
        self._device = device
        self._threshold = None

    def read(self, rng: np.random.Generator, n_reads: int | None = None) -> np.ndarray:
        """One noisy read as an (n_bits,) bool array, or n_reads of them as
        an (n_reads, n_bits) array, from one standard_normal draw of rng of
        that shape: bit k of a read is True when its normal exceeds bit k's
        threshold. Reads are drawn in order, so n reads in one call are the
        n reads of n calls."""
        bits = self.reference
        shape = bits.shape if n_reads is None else (n_reads,) + bits.shape
        threshold = self._threshold
        if threshold is None:
            device = self._device
            if not device.noise_sigma_mhz > 0:
                return np.broadcast_to(bits, shape)
            scale = device.noise_sigma_mhz * math.sqrt(2)
            if device.max_freq_mhz < scale * (sys.float_info.max / 2):  # no quotient overflows
                threshold = (self._f2 - self._f1) / scale
            else:  # a gap too large for a subnormal sigma becomes +-inf: a certain bit
                with np.errstate(over="ignore"):
                    threshold = (self._f2 - self._f1) / scale
            self._threshold = threshold
        return rng.standard_normal(shape) > threshold


def evaluate(device: PufDevice, challenge: Challenge, eval_seed: int) -> Response:
    """One noisy read of a challenge on a device (see NoisyRace), drawn from
    np.random.default_rng([eval_seed]); eval_seed must be an integer in
    [0, 2**64)."""
    if (isinstance(eval_seed, bool) or not isinstance(eval_seed, (int, np.integer))
            or not 0 <= eval_seed < 1 << 64):
        raise ConfigError(f"eval_seed must be an integer in [0, 2**64), got {eval_seed!r}")
    return Response(NoisyRace(device, challenge).read(np.random.default_rng([eval_seed])))


# largest bank random_challenge draws from: pair codes i * bank_size + j stay
# below 2**62, exact in int64 (one such bank is 2**31 float64s, 16 GiB)
_MAX_DRAW_BANK = 1 << 31
# challenges per random_challenge call in draw_challenges: at most this many
# unscreened enrollment candidates are alive at once
_DRAW_CHUNK = 64


def random_challenge(bank_size: int, n_bits: int, count: int,
                     rng: np.random.Generator) -> list[Challenge]:
    """Draw count challenges of n_bits distinct oscillator pairs, each uniform
    over bank_size^2 choices, in one integers(bank_size, size=(count, 2, n_bits))
    draw: row r's set1 selectors, then its set2 selectors. A row that repeats
    a pair keeps its first occurrences and, after the batch and in row order,
    is refilled from rng, need set1 then need set2 selectors a round. So each
    challenge is the first n_bits distinct pairs of an iid stream of pairs."""
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
    repeats = (codes[:, 1:] == codes[:, :-1]).sum(axis=1, dtype=np.int64).tolist()
    challenges = []
    for row, repeat in zip(batch, repeats):
        if repeat:  # keep first occurrences, in draw order, and refill
            chosen = dict.fromkeys((row[0] * bank_size + row[1]).tolist())
            while len(chosen) < n_bits:
                need = n_bits - len(chosen)
                ij = rng.integers(bank_size, size=2 * need)
                chosen.update(dict.fromkeys((ij[:need] * bank_size + ij[need:]).tolist()))
            pairs = np.array(list(chosen), dtype=np.int64)
            set1, set2 = pairs // bank_size, pairs % bank_size
        else:  # copies, so that a kept challenge holds no chunk's draw alive
            set1, set2 = row[0].copy(), row[1].copy()
        # int64 selectors in [0, bank_size) whose pairs do not repeat: built
        # without __post_init__, whose checks they already pass
        challenge = object.__new__(Challenge)
        for name, arr in (("set1_idx", set1), ("set2_idx", set2)):
            arr.setflags(write=False)
            object.__setattr__(challenge, name, arr)
        challenges.append(challenge)
    return challenges


def draw_challenges(bank_size: int, n_bits: int, count: int,
                    rng: np.random.Generator) -> Iterator[Challenge]:
    """count challenges from random_challenge, drawn _DRAW_CHUNK at a time as
    they are consumed: a caller that reads from rng between challenges reads
    after each chunk's draw."""
    for start in range(0, count, _DRAW_CHUNK):
        yield from random_challenge(bank_size, n_bits, min(_DRAW_CHUNK, count - start), rng)
