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
from dataclasses import dataclass, field

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

    def hamming(self, other: "Response") -> int:
        if self.n_bits != other.n_bits:
            raise ValueError("responses differ in length")
        return int(np.count_nonzero(self.bits != other.bits))

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
    of its reads is its reference.
    """

    __slots__ = ("reference", "_f1", "_f2", "_noise_sigma_mhz", "_threshold")

    def __init__(self, f1: np.ndarray, f2: np.ndarray, noise_sigma_mhz: float) -> None:
        self.reference = arbiter_bits(f1, f2)
        self._f1, self._f2, self._noise_sigma_mhz = f1, f2, noise_sigma_mhz
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
            if not self._noise_sigma_mhz > 0:
                return np.broadcast_to(bits, shape)
            # a gap too large for a subnormal sigma becomes a threshold of +-inf: a certain bit
            with np.errstate(over="ignore"):
                threshold = (self._f2 - self._f1) / (self._noise_sigma_mhz * math.sqrt(2))
            self._threshold = threshold
        return rng.standard_normal(shape) > threshold


def evaluate(device: PufDevice, challenge: Challenge, eval_seed: int) -> Response:
    """One noisy read of a challenge on a device (see NoisyRace), drawn from
    np.random.default_rng([eval_seed]); eval_seed must be an integer in
    [0, 2**64)."""
    if (isinstance(eval_seed, bool) or not isinstance(eval_seed, (int, np.integer))
            or not 0 <= eval_seed < 1 << 64):
        raise ConfigError(f"eval_seed must be an integer in [0, 2**64), got {eval_seed!r}")
    race = NoisyRace(*selected_freqs(device, challenge), device.noise_sigma_mhz)
    return Response(race.read(np.random.default_rng([eval_seed])))


# largest bank random_challenge draws from: pair codes i * bank_size + j stay
# below 2**62, exact in int64 (one such bank is 2**31 float64s, 16 GiB)
_MAX_DRAW_BANK = 1 << 31


def _drawn_challenge(set1_idx: np.ndarray, set2_idx: np.ndarray) -> Challenge:
    """A Challenge from random_challenge's draw, without __post_init__'s checks:
    the selectors are int64 values in [0, bank_size) of equal length >= 1 whose
    pairs are already known not to repeat."""
    challenge = object.__new__(Challenge)
    for name, arr in (("set1_idx", set1_idx), ("set2_idx", set2_idx)):
        arr.setflags(write=False)
        object.__setattr__(challenge, name, arr)
    return challenge


def random_challenge(bank_size: int, n_bits: int, rng: np.random.Generator) -> Challenge:
    """Draw n_bits distinct oscillator pairs uniformly from bank_size^2 choices."""
    if n_bits < 1:
        raise ChallengeError("challenge must select at least one oscillator pair")
    if bank_size > _MAX_DRAW_BANK:
        raise ChallengeError(f"cannot draw from banks larger than {_MAX_DRAW_BANK}, got {bank_size}")
    if n_bits > bank_size * bank_size:
        raise ChallengeError(
            f"cannot pick {n_bits} distinct pairs from {bank_size}x{bank_size} choices"
        )
    chosen: dict[int, None] = {}  # pair (i, j) coded as i * bank_size + j, in draw order
    while len(chosen) < n_bits:
        need = n_bits - len(chosen)
        # i then j: the stream of two calls of `need`, as 32-bit draws share a cached half-word
        ij = rng.integers(bank_size, size=2 * need)
        i, j = ij[:need], ij[need:]
        codes = i * bank_size + j
        if not chosen:
            ordered = codes.copy()
            ordered.sort()
            if not np.count_nonzero(ordered[1:] == ordered[:-1]):
                return _drawn_challenge(i, j)
        chosen.update(dict.fromkeys(codes.tolist()))  # a pair repeats: keep first draws
    codes = np.array(list(chosen), dtype=np.int64)
    return _drawn_challenge(codes // bank_size, codes % bank_size)
