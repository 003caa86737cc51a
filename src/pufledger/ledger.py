"""Append-only hash-linked ledger keyed by device responses.

Block payloads are bound to a device response through an authentication
tag: SHA-256 over the block's canonical byte encoding followed by the
packed 128-bit response. The response itself never appears in a block or
on disk; holders of the enrolled response can recompute the tag, nobody
else can forge it.

A chain is a plain list of entries that `append` extends in place; each
replica owns its list, so an append adds one entry and copies nothing.
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
from typing import Optional

from .errors import ConfigError, PayloadSizeError
from .puf import DEVICE_ID_BITS, RESPONSE_BITS, Response, format_device_id, parse_device_id

MAX_PAYLOAD_BYTES = 64 * 1024
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


def tip_hash(chain: list[ChainEntry]) -> bytes:
    """Hash the next entry links to: the last entry's, or all zeros."""
    return chain[-1].entry_hash if chain else GENESIS_PREV_HASH


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
    chain: list[ChainEntry],
    data: BlockData,
    auth_tag: AuthTag,
    trusted_node_id: int,
    t_validated: int,
) -> ChainEntry:
    """Extend the chain in place by one entry and return it; the first
    entry links to all zeros."""
    if not 0 <= trusted_node_id < (1 << DEVICE_ID_BITS):
        raise ConfigError(f"trusted_node_id out of 48-bit range: {trusted_node_id}")
    if not 0 <= t_validated <= _U64_MAX:
        raise ConfigError(f"t_validated out of 64-bit range: {t_validated}")
    entry = make_entry(len(chain), tip_hash(chain), data, auth_tag, trusted_node_id, t_validated)
    chain.append(entry)
    return entry


def verify(chain: list[ChainEntry]) -> Optional[int]:
    """Return None for a sound chain, else the lowest failing height.

    An entry fails when any field is structurally wrong, when its stored
    hash does not match a recomputation, or when it does not link to its
    predecessor (the first entry must link to 32 zero bytes).
    """
    prev = GENESIS_PREV_HASH
    for index, entry in enumerate(chain):
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


def save_chain(path: str | Path, chain: list[ChainEntry]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        for entry in chain:
            fh.write(entry_to_json_line(entry) + "\n")


def verify_chain_bytes(raw: bytes) -> Optional[int]:
    """Verify a serialized chain; returns None when sound, else the lowest
    failing position (line index, which equals height for a well-formed
    file). A line that does not parse fails at its own index, unless an
    entry below it already fails verification."""
    entries: list[ChainEntry] = []
    body = raw[:-1] if raw.endswith(b"\n") else raw
    for index, segment in enumerate(body.split(b"\n") if raw else ()):
        try:
            entries.append(entry_from_json_line(segment.decode("ascii")))
        except (ValueError, KeyError, RecursionError):  # RecursionError: deeply nested JSON
            bad = verify(entries)
            return index if bad is None else bad
    return verify(entries)


def verify_chain_file(path: str | Path) -> Optional[int]:
    return verify_chain_bytes(Path(path).read_bytes())
