"""Append-only hash-linked ledger keyed by device responses.

Block payloads are bound to a device response through an authentication
tag: SHA-256 over the block's canonical byte encoding followed by the
packed 128-bit response. The response itself never appears in a block or
on disk; holders of the enrolled response can recompute the tag, nobody
else can forge it.

Entries link by hash. Verification walks the chain from the first entry
and reports the lowest height at which anything disagrees: a broken hash,
a broken link, a malformed field. Malformed entries are verification
failures, never exceptions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .errors import ChainFormatError, ConfigError, PayloadSizeError
from .puf import DEVICE_ID_BITS, Response, format_device_id, parse_device_id

MAX_PAYLOAD_BYTES = 64 * 1024
RESPONSE_BITS = 128
RESPONSE_BYTES = RESPONSE_BITS // 8
HASH_BYTES = 32
GENESIS_PREV_HASH = bytes(HASH_BYTES)

_DEVICE_ID_BYTES = DEVICE_ID_BITS // 8
_U64_MAX = (1 << 64) - 1


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class BlockData:
    """What a device asserts in one transaction: who, which attempt, when, what."""

    device_id: int
    seq: int
    t_init: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.device_id < (1 << DEVICE_ID_BITS):
            raise ConfigError(f"device_id out of 48-bit range: {self.device_id}")
        if not 0 <= self.seq <= _U64_MAX:
            raise ConfigError(f"seq out of 64-bit range: {self.seq}")
        if not 0 <= self.t_init <= _U64_MAX:
            raise ConfigError(f"t_init out of 64-bit range: {self.t_init}")
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise PayloadSizeError(
                f"payload is {len(self.payload)} bytes, maximum is {MAX_PAYLOAD_BYTES}"
            )


def canonical_bytes(data: BlockData) -> bytes:
    """Fixed-layout encoding: id(6) || seq(8) || t_init(8) || len(4) || payload.

    All integers are big-endian. The length prefix makes the encoding
    injective: no two distinct BlockData values share an encoding.
    """
    return (
        data.device_id.to_bytes(_DEVICE_ID_BYTES, "big")
        + data.seq.to_bytes(8, "big")
        + data.t_init.to_bytes(8, "big")
        + len(data.payload).to_bytes(4, "big")
        + data.payload
    )


def parse_canonical(buf: bytes) -> BlockData:
    """Inverse of canonical_bytes; rejects truncated or over-long buffers."""
    header = _DEVICE_ID_BYTES + 8 + 8 + 4
    if len(buf) < header:
        raise ValueError(f"canonical block needs at least {header} bytes, got {len(buf)}")
    device_id = int.from_bytes(buf[:6], "big")
    seq = int.from_bytes(buf[6:14], "big")
    t_init = int.from_bytes(buf[14:22], "big")
    payload_len = int.from_bytes(buf[22:26], "big")
    if len(buf) != header + payload_len:
        raise ValueError(
            f"length prefix says {payload_len} payload bytes but buffer has {len(buf) - header}"
        )
    return BlockData(device_id=device_id, seq=seq, t_init=t_init, payload=buf[26:])


@dataclass(frozen=True)
class AuthTag:
    """SHA-256 binding a block's canonical bytes to a device response."""

    h: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.h, bytes) or len(self.h) != HASH_BYTES:
            raise ValueError(f"auth tag must be exactly {HASH_BYTES} bytes")

    def hex(self) -> str:
        return self.h.hex()


def make_auth_tag(data: BlockData, response: Response) -> AuthTag:
    if response.n_bits != RESPONSE_BITS:
        raise ValueError(f"auth tags require {RESPONSE_BITS}-bit responses, got {response.n_bits}")
    return AuthTag(sha256(canonical_bytes(data) + response.packed()))


@dataclass(frozen=True)
class ChainEntry:
    """One validated block in position. Deliberately unvalidated at
    construction so that verification, not construction, judges malformed
    values."""

    height: int
    prev_hash: bytes
    data: BlockData
    auth_tag: AuthTag
    trusted_node_id: int
    t_validated: int
    entry_hash: bytes


def _entry_preimage(
    height: int,
    prev_hash: bytes,
    data: BlockData,
    auth_tag: AuthTag,
    trusted_node_id: int,
    t_validated: int,
) -> bytes:
    return (
        height.to_bytes(8, "big")
        + prev_hash
        + canonical_bytes(data)
        + auth_tag.h
        + trusted_node_id.to_bytes(_DEVICE_ID_BYTES, "big")
        + t_validated.to_bytes(8, "big")
    )


@dataclass(frozen=True)
class Chain:
    """Immutable sequence of entries; append returns a new chain."""

    entries: tuple[ChainEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def tip_hash(self) -> bytes:
        return self.entries[-1].entry_hash if self.entries else GENESIS_PREV_HASH


def make_entry(
    height: int,
    prev_hash: bytes,
    data: BlockData,
    auth_tag: AuthTag,
    trusted_node_id: int,
    t_validated: int,
) -> ChainEntry:
    preimage = _entry_preimage(height, prev_hash, data, auth_tag, trusted_node_id, t_validated)
    return ChainEntry(
        height=height,
        prev_hash=prev_hash,
        data=data,
        auth_tag=auth_tag,
        trusted_node_id=trusted_node_id,
        t_validated=t_validated,
        entry_hash=sha256(preimage),
    )


def append(
    chain: Chain,
    data: BlockData,
    auth_tag: AuthTag,
    trusted_node_id: int,
    t_validated: int,
) -> Chain:
    """Extend the chain by one entry; the first entry links to all zeros."""
    if not 0 <= trusted_node_id < (1 << DEVICE_ID_BITS):
        raise ConfigError(f"trusted_node_id out of 48-bit range: {trusted_node_id}")
    if not 0 <= t_validated <= _U64_MAX:
        raise ConfigError(f"t_validated out of 64-bit range: {t_validated}")
    entry = make_entry(len(chain), chain.tip_hash, data, auth_tag, trusted_node_id, t_validated)
    return Chain(chain.entries + (entry,))


def verify(chain: Chain) -> Optional[int]:
    """Return None for a sound chain, else the lowest failing height.

    An entry fails when any field is structurally wrong, when its stored
    hash does not match a recomputation, or when it does not link to its
    predecessor (the first entry must link to 32 zero bytes).
    """
    prev = GENESIS_PREV_HASH
    for index, entry in enumerate(chain.entries):
        if not _entry_well_formed(entry):
            return index
        if entry.height != index:
            return index
        if entry.prev_hash != prev:
            return index
        preimage = _entry_preimage(
            entry.height, entry.prev_hash, entry.data, entry.auth_tag,
            entry.trusted_node_id, entry.t_validated,
        )
        if sha256(preimage) != entry.entry_hash:
            return index
        prev = entry.entry_hash
    return None


def _entry_well_formed(entry: ChainEntry) -> bool:
    if not isinstance(entry.height, int) or isinstance(entry.height, bool) or entry.height < 0:
        return False
    if not isinstance(entry.prev_hash, bytes) or len(entry.prev_hash) != HASH_BYTES:
        return False
    if not isinstance(entry.entry_hash, bytes) or len(entry.entry_hash) != HASH_BYTES:
        return False
    if not isinstance(entry.data, BlockData) or not isinstance(entry.auth_tag, AuthTag):
        return False
    if not isinstance(entry.trusted_node_id, int) or isinstance(entry.trusted_node_id, bool):
        return False
    if not 0 <= entry.trusted_node_id < (1 << DEVICE_ID_BITS):
        return False
    if not isinstance(entry.t_validated, int) or isinstance(entry.t_validated, bool):
        return False
    if not 0 <= entry.t_validated <= _U64_MAX:
        return False
    return True


# --- persistence -----------------------------------------------------------
#
# One JSON object per line, keys in a fixed order, integers bare, binary
# fields as lowercase hex. Loading is strict: a line must reproduce its
# exact bytes when re-serialized, which rules out every non-canonical
# spelling of the same values.

_ENTRY_KEYS = (
    "height", "prev_hash", "device_id", "seq", "t_init",
    "payload", "auth_tag", "trusted_node_id", "t_validated", "entry_hash",
)


def entry_to_json_line(entry: ChainEntry) -> str:
    obj = {
        "height": entry.height,
        "prev_hash": entry.prev_hash.hex(),
        "device_id": format_device_id(entry.data.device_id),
        "seq": entry.data.seq,
        "t_init": entry.data.t_init,
        "payload": entry.data.payload.hex(),
        "auth_tag": entry.auth_tag.hex(),
        "trusted_node_id": format_device_id(entry.trusted_node_id),
        "t_validated": entry.t_validated,
        "entry_hash": entry.entry_hash.hex(),
    }
    return json.dumps(obj, separators=(",", ":"))


def _require_int(value: object, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    return value


def _require_hex(value: object, name: str, n_bytes: Optional[int] = None) -> bytes:
    if not isinstance(value, str) or value != value.lower():
        raise ValueError(f"{name} must be a lowercase hex string")
    raw = bytes.fromhex(value)
    if n_bytes is not None and len(raw) != n_bytes:
        raise ValueError(f"{name} must encode exactly {n_bytes} bytes")
    return raw


def entry_from_json_line(line: str) -> ChainEntry:
    """Strictly parse one persisted entry; raises ValueError on any deviation."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or tuple(obj.keys()) != _ENTRY_KEYS:
        raise ValueError(f"entry record must have exactly the keys {list(_ENTRY_KEYS)} in order")
    entry = ChainEntry(
        height=_require_int(obj["height"], "height"),
        prev_hash=_require_hex(obj["prev_hash"], "prev_hash", HASH_BYTES),
        data=BlockData(
            device_id=parse_device_id(obj["device_id"]),
            seq=_require_int(obj["seq"], "seq"),
            t_init=_require_int(obj["t_init"], "t_init"),
            payload=_require_hex(obj["payload"], "payload"),
        ),
        auth_tag=AuthTag(_require_hex(obj["auth_tag"], "auth_tag", HASH_BYTES)),
        trusted_node_id=parse_device_id(obj["trusted_node_id"]),
        t_validated=_require_int(obj["t_validated"], "t_validated"),
        entry_hash=_require_hex(obj["entry_hash"], "entry_hash", HASH_BYTES),
    )
    if entry_to_json_line(entry) != line:
        raise ValueError("entry record is not in canonical form")
    return entry


def save_chain(path: str | Path, chain: Chain) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        for entry in chain.entries:
            fh.write(entry_to_json_line(entry) + "\n")


def _parse_entries(raw: bytes) -> Iterator[ChainEntry]:
    """Yield the entries of serialized chain bytes in order, raising
    ChainFormatError naming the first line that does not parse."""
    if not raw:
        return
    body = raw[:-1] if raw.endswith(b"\n") else raw
    for index, segment in enumerate(body.split(b"\n")):
        try:
            entry = entry_from_json_line(segment.decode("ascii"))
        except (ValueError, KeyError) as exc:
            raise ChainFormatError(f"line {index}: {exc}") from exc
        yield entry


def load_chain(path: str | Path) -> Chain:
    """Load a chain file, raising ChainFormatError naming the first bad line."""
    return Chain(tuple(_parse_entries(Path(path).read_bytes())))


def verify_chain_bytes(raw: bytes) -> Optional[int]:
    """Verify a serialized chain; returns None when sound, else the first
    failing position (line index, which equals height for a well-formed
    file). Parse failures count as verification failures at their line."""
    entries: list[ChainEntry] = []
    try:
        for entry in _parse_entries(raw):
            entries.append(entry)
    except ChainFormatError:
        return len(entries)
    return verify(Chain(tuple(entries)))


def verify_chain_file(path: str | Path) -> Optional[int]:
    return verify_chain_bytes(Path(path).read_bytes())
