"""Simulated hybrid oscillator-arbiter PUF.

A device owns two banks of ring oscillators. Manufacturing variation fixes
each oscillator's natural frequency once, at fabrication time, by drawing
from a normal distribution. A challenge names one oscillator from each bank
per response bit; evaluating the challenge races the two oscillators and an
arbiter emits 1 when the first bank's oscillator is faster. Thermal noise
jitters every race, so repeated evaluations of the same challenge can
disagree on bits whose frequency gap is small.

Frequencies are in MHz and are rounded to 1e-6 MHz (FREQ_DECIMALS) at
manufacture. The rounding is part of what a seed manufactures: every stored
reference response, and so every artifact built from one, depends on it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ChallengeError, ConfigError

DEVICE_ID_BITS = 48
DEVICE_ID_HEX_DIGITS = DEVICE_ID_BITS // 4
RESPONSE_BITS = 128  # bits of every enrolled response, and so of every auth tag's key
FREQ_DECIMALS = 6
_DEVICE_ID_RE = re.compile(f"[0-9a-f]{{{DEVICE_ID_HEX_DIGITS}}}")


def format_device_id(device_id: int) -> str:
    """Render a 48-bit device id as 12 lowercase hex digits."""
    if not 0 <= device_id < (1 << DEVICE_ID_BITS):
        raise ValueError(f"device_id out of 48-bit range: {device_id}")
    return format(device_id, f"0{DEVICE_ID_HEX_DIGITS}x")


def parse_device_id(text: str) -> int:
    """Inverse of format_device_id; accepts nothing else (no sign, prefix or underscore)."""
    if not isinstance(text, str) or _DEVICE_ID_RE.fullmatch(text) is None:
        raise ValueError(f"device id must be {DEVICE_ID_HEX_DIGITS} lowercase hex digits: {text!r}")
    return int(text, 16)


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
    _max_idx: int = field(init=False, repr=False)  # largest index in either array

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
        object.__setattr__(self, "_max_idx", max(int(s1[-1]), int(self.set2_idx.max())))

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
    """An ordered bit vector produced by evaluating one challenge."""

    bits: np.ndarray
    _packed: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bits.ndim != 1 or self.bits.dtype != np.uint8:
            raise ValueError("response bits must be a one-dimensional uint8 array")
        if len(self.bits) == 0:
            raise ValueError("response must contain at least one bit")
        if self.bits.max() > 1:
            raise ValueError("response bits must be 0 or 1")
        self.bits.setflags(write=False)
        object.__setattr__(self, "_packed", np.packbits(self.bits).tobytes())

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
    if challenge._max_idx >= device.bank_size:
        raise ChallengeError(
            f"challenge selects oscillators past bank size {device.bank_size}"
        )
    return device.set1_freqs[challenge.set1_idx], device.set2_freqs[challenge.set2_idx]


def arbiter_bits(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """The arbiter's uint8 bit per race of f1 against f2.

    Ties (exactly equal frequencies) resolve to 0; an arbiter needs a strict
    win by the first bank to emit 1.
    """
    return (f1 > f2).astype(np.uint8)


def reference_response(device: PufDevice, challenge: Challenge) -> Response:
    """Noiseless evaluation: a pure function of the device and the challenge."""
    return Response(arbiter_bits(*selected_freqs(device, challenge)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_MULT_L = np.uint32(0xCA01F9DD)
_SS_MIX_MULT_R = np.uint32(0x4973F715)
_SS_XSHIFT = np.uint32(16)
_SS_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_SEED_LIMIT = 1 << 64


def read_seeds(eval_seeds) -> np.ndarray:
    """The PCG64 seed words of the noisy read named by each eval seed.

    Row k of the result (shape eval_seeds.shape + (4,), uint64) equals
    np.random.SeedSequence([s]).generate_state(4, np.uint64) for the seed s
    at k: the SeedSequence hash with pool size 4, run over every seed at
    once in uint32 array arithmetic. Its entropy is the seed's low and high
    32-bit words; a seed below 2**32 hashes as one word, and a missing word
    hashes like a zero word, so two words serve every seed in [0, 2**64).
    Raises ConfigError for a seed outside that range.
    """
    # Python ints stay exact as objects (a list mixing seeds past 2**63 with
    # small ones would otherwise become float64)
    seeds = eval_seeds if isinstance(eval_seeds, np.ndarray) else np.array(eval_seeds, dtype=object)
    if seeds.dtype == object:
        valid = all(isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                    and 0 <= s < _SEED_LIMIT for s in seeds.flat)
    else:
        valid = seeds.dtype.kind == "u" or (seeds.dtype.kind == "i" and (seeds.size == 0 or seeds.min() >= 0))
    if not valid:
        raise ConfigError("eval seeds must be integers in [0, 2**64)")
    flat = seeds.reshape(-1).astype(np.uint64)
    entropy = [(flat & np.uint64(_MASK32)).astype(np.uint32),
               (flat >> np.uint64(32)).astype(np.uint32)]
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SS_XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _SS_MIX_MULT_L * x - _SS_MIX_MULT_R * y
        return result ^ (result >> _SS_XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_SS_POOL_SIZE)]
    for i_src in range(_SS_POOL_SIZE):
        for i_dst in range(_SS_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # generate_state(4, uint64): eight uint32 words cycled from the pool,
    # paired little-endian into four uint64 words
    hash_const = _SS_INIT_B
    state = []
    for i_dst in range(2 * _SS_POOL_SIZE):
        value = pool[i_dst % _SS_POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append(value ^ (value >> _SS_XSHIFT))
    words = np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)
    return words.reshape(seeds.shape + (4,))


class _ReadSeed(np.random.bit_generator.ISeedSequence):
    """Hands one row of read_seeds words to PCG64 as its seeded state."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a read seed holds exactly four uint64 words")
        # PCG64 reads the raw buffer, so it must be four contiguous uint64s
        return np.ascontiguousarray(self._words, dtype=np.uint64)


def noisy_bits(f1: np.ndarray, f2: np.ndarray, noise_sigma_mhz: float, words: np.ndarray) -> np.ndarray:
    """One noisy race of the selected oscillator frequencies f1 against f2.

    Every race gets fresh jitter on both oscillators. The jitter stream is a
    deterministic function of the read's seed words (one row of read_seeds)
    alone, and is the stream np.random.default_rng([eval_seed]) gives for
    the seed they came from. The same frequencies and words always
    reproduce the same bits, and distinct seeds give independent jitter.
    Returns the uint8 bit vector.
    """
    if noise_sigma_mhz > 0:
        rng = np.random.Generator(np.random.PCG64(_ReadSeed(words)))
        n = len(f1)
        jitter = rng.normal(0.0, noise_sigma_mhz, size=2 * n)  # a (2, n) draw's values, flat
        f1 = f1 + jitter[:n]
        f2 = f2 + jitter[n:]
    return arbiter_bits(f1, f2)


def evaluate(device: PufDevice, challenge: Challenge, eval_seed: int) -> Response:
    """Noisy evaluation of a challenge on a device (see noisy_bits); eval_seed
    must lie in [0, 2**64)."""
    f1, f2 = selected_freqs(device, challenge)
    return Response(noisy_bits(f1, f2, device.noise_sigma_mhz, read_seeds(eval_seed)))


# largest bank random_challenge draws from: pair codes i * bank_size + j stay
# below 2**62, exact in int64 (one such bank is 2**31 float64s, 16 GiB)
_MAX_DRAW_BANK = 1 << 31


def _drawn_challenge(set1_idx: np.ndarray, set2_idx: np.ndarray, max_idx: int) -> Challenge:
    """A Challenge from random_challenge's draw, without __post_init__'s checks:
    the selectors are int64 values in [0, bank_size) of equal length >= 1 whose
    pairs are already known not to repeat, and max_idx is their largest value."""
    challenge = object.__new__(Challenge)
    for name, arr in (("set1_idx", set1_idx), ("set2_idx", set2_idx)):
        arr.setflags(write=False)
        object.__setattr__(challenge, name, arr)
    object.__setattr__(challenge, "_max_idx", max_idx)
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
        ij = rng.integers(0, bank_size, size=2 * need)
        i, j = ij[:need], ij[need:]
        codes = i * bank_size + j
        if not chosen:
            ordered = np.sort(codes)
            if not (ordered[1:] == ordered[:-1]).any():
                return _drawn_challenge(i, j, int(ij.max()))
        chosen.update(dict.fromkeys(codes.tolist()))  # a pair repeats: keep first draws
    codes = np.array(list(chosen), dtype=np.int64)
    set1_idx, set2_idx = codes // bank_size, codes % bank_size
    return _drawn_challenge(set1_idx, set2_idx, max(int(set1_idx.max()), int(set2_idx.max())))
