"""Simulated hybrid oscillator-arbiter PUF.

A device owns two banks of ring oscillators. Manufacturing variation fixes
each oscillator's natural frequency once, at fabrication time, by drawing
from a normal distribution. A challenge names one oscillator from each bank
per response bit; evaluating the challenge races the two oscillators and an
arbiter emits 1 when the first bank's oscillator is faster. Thermal noise
jitters every race, so repeated evaluations of the same challenge can
disagree on bits whose frequency gap is small.

Frequencies are in MHz and are quantized to 1e-6 MHz at manufacture so that
a device round-trips exactly through its on-disk representation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ChallengeError, ConfigError

DEVICE_ID_BITS = 48
DEVICE_ID_HEX_DIGITS = DEVICE_ID_BITS // 4
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
    response_bits: int = 128
    freq_mean_mhz: float = 250.0
    freq_sigma_mhz: float = 5.0
    noise_sigma_mhz: float = 0.245
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if self.n_oscillators < 2 or self.n_oscillators % 2 != 0:
            raise ConfigError(f"n_oscillators must be even and >= 2, got {self.n_oscillators}")
        if self.response_bits < 1:
            raise ConfigError(f"response_bits must be >= 1, got {self.response_bits}")
        if self.freq_mean_mhz <= 0:
            raise ConfigError(f"freq_mean_mhz must be positive, got {self.freq_mean_mhz}")
        if self.freq_sigma_mhz <= 0:
            raise ConfigError(f"freq_sigma_mhz must be positive, got {self.freq_sigma_mhz}")
        if self.noise_sigma_mhz < 0:
            raise ConfigError(f"noise_sigma_mhz must be >= 0, got {self.noise_sigma_mhz}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        bank = self.n_oscillators // 2
        if self.response_bits > bank * bank:
            raise ConfigError(
                f"response_bits {self.response_bits} exceeds the {bank * bank} "
                f"distinct oscillator pairs of a {bank}-per-bank device"
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
        pairs = set(zip(self.set1_idx.tolist(), self.set2_idx.tolist()))
        if len(pairs) != len(self.set1_idx):
            raise ChallengeError("challenge repeats an oscillator pair")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Challenge":
        seq = list(pairs)
        if not seq:
            raise ChallengeError("challenge must select at least one oscillator pair")
        arr = np.asarray(seq, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ChallengeError("pairs must be (set1_index, set2_index) tuples")
        return cls(arr[:, 0].copy(), arr[:, 1].copy())

    @property
    def n_bits(self) -> int:
        return len(self.set1_idx)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.set1_idx.tolist(), self.set2_idx.tolist()))

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

    @classmethod
    def from_packed(cls, raw: bytes, n_bits: int) -> "Response":
        if len(raw) != (n_bits + 7) // 8:
            raise ValueError(f"need {(n_bits + 7) // 8} bytes for {n_bits} bits, got {len(raw)}")
        unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        if unpacked[n_bits:].any():
            raise ValueError("padding bits past the response length must be zero")
        return cls(unpacked[:n_bits].copy())

    @classmethod
    def from_hex(cls, text: str, n_bits: int) -> "Response":
        if text != text.lower():
            raise ValueError("response hex must be lowercase")
        return cls.from_packed(bytes.fromhex(text), n_bits)

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
            if len(arr) == 0 or (arr <= 0).any():
                raise ConfigError("frequency banks must be non-empty and strictly positive")
            arr.setflags(write=False)
        if len(self.set1_freqs) != len(self.set2_freqs):
            raise ConfigError("frequency banks must have equal size")
        if self.noise_sigma_mhz < 0:
            raise ConfigError(f"noise_sigma_mhz must be >= 0, got {self.noise_sigma_mhz}")

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
    if int(challenge.set1_idx.max()) >= device.bank_size or int(challenge.set2_idx.max()) >= device.bank_size:
        raise ChallengeError(
            f"challenge selects oscillators past bank size {device.bank_size}"
        )
    return device.set1_freqs[challenge.set1_idx], device.set2_freqs[challenge.set2_idx]


def reference_response(device: PufDevice, challenge: Challenge) -> Response:
    """Noiseless evaluation: a pure function of the device and the challenge.

    Ties (exactly equal frequencies) resolve to 0; an arbiter needs a strict
    win by the first bank to emit 1.
    """
    f1, f2 = selected_freqs(device, challenge)
    return Response((f1 > f2).astype(np.uint8))


def noisy_bits(f1: np.ndarray, f2: np.ndarray, noise_sigma_mhz: float, eval_seed: int) -> np.ndarray:
    """One noisy race of the selected oscillator frequencies f1 against f2.

    Every race gets fresh jitter on both oscillators. The jitter stream is a
    deterministic function of eval_seed alone, so the same frequencies and
    eval_seed always reproduce the same bits, and distinct seeds give
    independent jitter. Returns the uint8 bit vector.
    """
    if eval_seed < 0:
        raise ConfigError(f"eval_seed must be >= 0, got {eval_seed}")
    if noise_sigma_mhz > 0:
        rng = np.random.default_rng([eval_seed])
        jitter = rng.normal(0.0, noise_sigma_mhz, size=(2, len(f1)))
        f1 = f1 + jitter[0]
        f2 = f2 + jitter[1]
    return (f1 > f2).astype(np.uint8)


def evaluate(device: PufDevice, challenge: Challenge, eval_seed: int) -> Response:
    """Noisy evaluation of a challenge on a device (see noisy_bits)."""
    f1, f2 = selected_freqs(device, challenge)
    return Response(noisy_bits(f1, f2, device.noise_sigma_mhz, eval_seed))


def random_challenge(bank_size: int, n_bits: int, rng: np.random.Generator) -> Challenge:
    """Draw n_bits distinct oscillator pairs uniformly from bank_size^2 choices."""
    if n_bits > bank_size * bank_size:
        raise ChallengeError(
            f"cannot pick {n_bits} distinct pairs from {bank_size}x{bank_size} choices"
        )
    chosen: dict[int, None] = {}  # pair (i, j) coded as i * bank_size + j, in draw order
    while len(chosen) < n_bits:
        need = n_bits - len(chosen)
        i = rng.integers(0, bank_size, size=need)
        j = rng.integers(0, bank_size, size=need)
        chosen.update(dict.fromkeys((i * bank_size + j).tolist()))
    codes = np.array(list(chosen), dtype=np.int64)
    return Challenge(codes // bank_size, codes % bank_size)


def _format_freqs(freqs: np.ndarray) -> str:
    return "[" + ",".join(f"{x:.{FREQ_DECIMALS}f}" for x in freqs.tolist()) + "]"


def device_to_json_line(device: PufDevice) -> str:
    """One-line JSON with frequencies rendered at fixed 1e-6 MHz precision."""
    return (
        '{"device_id":"' + device.device_id_hex + '"'
        + ',"set1_freqs":' + _format_freqs(device.set1_freqs)
        + ',"set2_freqs":' + _format_freqs(device.set2_freqs)
        + ',"noise_sigma":' + repr(float(device.noise_sigma_mhz))
        + "}"
    )


def device_from_json_line(line: str) -> PufDevice:
    obj = json.loads(line)
    expected = {"device_id", "set1_freqs", "set2_freqs", "noise_sigma"}
    if set(obj) != expected:
        raise ValueError(f"device record must have exactly the keys {sorted(expected)}")
    return PufDevice(
        device_id=parse_device_id(obj["device_id"]),
        set1_freqs=np.asarray(obj["set1_freqs"], dtype=np.float64),
        set2_freqs=np.asarray(obj["set2_freqs"], dtype=np.float64),
        noise_sigma_mhz=float(obj["noise_sigma"]),
    )


def save_devices(path: str | Path, devices: Sequence[PufDevice]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for device in devices:
            fh.write(device_to_json_line(device) + "\n")


def load_devices(path: str | Path) -> list[PufDevice]:
    devices = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.strip():
                devices.append(device_from_json_line(line))
    return devices
