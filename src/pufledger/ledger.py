"""Append-only hash-linked ledger keyed by device responses.

Block payloads are bound to a device response through an authentication
tag: SHA-256 over the block's canonical byte encoding followed by the
packed 128-bit response. The response itself never appears in a block or
on disk; holders of the enrolled response can recompute the tag, nobody
else can forge it.

A chain is a plain list of entries that `append` extends in place; each
replica owns its list, so an append adds one entry and copies nothing.
Entries are immutable, and `make_entry` hands out one entry object per
distinct field tuple among the last ENTRY_MEMO_SIZE it built, so replicas
that agree share entries, and each entry is hashed and serialized once.
Entries link by hash. A malformed entry cannot be built: every field is
checked when a ChainEntry is constructed. Verification walks the chain
from the first entry and reports the lowest height at which anything
disagrees: a wrong height, a broken link, a broken hash. In a chain file a
malformed line is one more verification failure, never an exception.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Optional

from .errors import ConfigError, PayloadSizeError
from .puf import DEVICE_ID_BITS, DEVICE_ID_HEX_DIGITS, RESPONSE_BITS, Response, format_device_id

MAX_PAYLOAD_BYTES = 64 * 1024
HASH_BYTES = 32
GENESIS_PREV_HASH = bytes(HASH_BYTES)
ENTRY_MEMO_SIZE = 64

_DEVICE_ID_BYTES = DEVICE_ID_BITS // 8


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _check_uint(name: str, value: object, bits: int) -> None:
    # a bool would pass the range check as 0 or 1, but save as true or false
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < (1 << bits):
        raise ConfigError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")


def _check_hash(name: str, value: object) -> None:
    if not isinstance(value, bytes) or len(value) != HASH_BYTES:
        raise ConfigError(f"{name} must be exactly {HASH_BYTES} bytes")


@dataclass(frozen=True)
class BlockData:
    """What a device asserts in one transaction: who, which attempt, when, what."""

    device_id: int
    seq: int
    t_init: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        _check_uint("device_id", self.device_id, DEVICE_ID_BITS)
        _check_uint("seq", self.seq, 64)
        _check_uint("t_init", self.t_init, 64)
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise PayloadSizeError(
                f"payload is {len(self.payload)} bytes, maximum is {MAX_PAYLOAD_BYTES}"
            )

    @cached_property
    def encoded(self) -> bytes:
        """Fixed-layout encoding: id(6) || seq(8) || t_init(8) || len(4) || payload.

        All integers are big-endian. The length prefix makes the encoding
        injective: no two distinct BlockData values share an encoding. It is
        built once per block: the block's tag, its check at the trusted node
        and every entry that holds it read the same bytes.
        """
        return (self.device_id.to_bytes(_DEVICE_ID_BYTES, "big") + self.seq.to_bytes(8, "big")
                + self.t_init.to_bytes(8, "big") + len(self.payload).to_bytes(4, "big")
                + self.payload)


@dataclass(frozen=True)
class AuthTag:
    """SHA-256 binding a block's canonical bytes to a device response."""

    h: bytes

    def __post_init__(self) -> None:
        _check_hash("auth_tag", self.h)

    def hex(self) -> str:
        return self.h.hex()


def make_auth_tag(data: BlockData, response: Response) -> AuthTag:
    if response.n_bits != RESPONSE_BITS:
        raise ValueError(f"auth tags require {RESPONSE_BITS}-bit responses, got {response.n_bits}")
    return AuthTag(sha256(data.encoded + response.packed()))


@dataclass(frozen=True)
class ChainEntry:
    """One validated block in position. Every field is checked here, and
    the entry hash is computed here: left out, `entry_hash` is that hash;
    given, it is kept as the stored hash, and verify() fails the entry when
    the two differ."""

    height: int
    prev_hash: bytes
    data: BlockData
    auth_tag: AuthTag
    trusted_node_id: int
    t_validated: int
    entry_hash: Optional[bytes] = None
    _hash_matches: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_uint("height", self.height, 64)
        _check_hash("prev_hash", self.prev_hash)
        if not isinstance(self.data, BlockData) or not isinstance(self.auth_tag, AuthTag):
            raise ConfigError("data must be a BlockData and auth_tag an AuthTag")
        _check_uint("trusted_node_id", self.trusted_node_id, DEVICE_ID_BITS)
        _check_uint("t_validated", self.t_validated, 64)
        computed = sha256(
            self.height.to_bytes(8, "big")
            + self.prev_hash
            + self.data.encoded
            + self.auth_tag.h
            + self.trusted_node_id.to_bytes(_DEVICE_ID_BYTES, "big")
            + self.t_validated.to_bytes(8, "big")
        )
        if self.entry_hash is None:
            object.__setattr__(self, "entry_hash", computed)
        _check_hash("entry_hash", self.entry_hash)
        object.__setattr__(self, "_hash_matches", self.entry_hash == computed)

    @cached_property
    def json_line(self) -> str:
        """entry_to_json_line(self), built once for every replica holding the entry."""
        return entry_to_json_line(self)

    @cached_property
    def hash_hex(self) -> str:
        """entry_hash as 64 lowercase hex digits, built once: every accept and
        rebroadcast of the entry, at every replica, names it by this string."""
        return self.entry_hash.hex()


def tip_hash(chain: list[ChainEntry]) -> bytes:
    """Hash the next entry links to: the last entry's, or all zeros."""
    return chain[-1].entry_hash if chain else GENESIS_PREV_HASH


# typed: 1, True and 1.0 are equal keys, but only the int is a valid field
_memo_entry = lru_cache(maxsize=ENTRY_MEMO_SIZE, typed=True)(ChainEntry)


def make_entry(
    height: int,
    prev_hash: bytes,
    data: BlockData,
    auth_tag: AuthTag,
    trusted_node_id: int,
    t_validated: int,
) -> ChainEntry:
    """The entry with these fields, memoized over the last ENTRY_MEMO_SIZE
    distinct field tuples: a client replicating the trusted node's block
    gets the trusted node's entry object without hashing it again.
    Unhashable fields skip the memo; invalid ones raise ConfigError."""
    try:
        return _memo_entry(height, prev_hash, data, auth_tag, trusted_node_id, t_validated)
    except TypeError:  # unhashable: ChainEntry checks the fields and says what is wrong
        return ChainEntry(height, prev_hash, data, auth_tag, trusted_node_id, t_validated)


def append(
    chain: list[ChainEntry],
    data: BlockData,
    auth_tag: AuthTag,
    trusted_node_id: int,
    t_validated: int,
) -> ChainEntry:
    """Extend the chain in place by one entry and return it; the first
    entry links to all zeros."""
    entry = make_entry(len(chain), tip_hash(chain), data, auth_tag, trusted_node_id, t_validated)
    chain.append(entry)
    return entry


def verify(chain: list[ChainEntry]) -> Optional[int]:
    """Return None for a sound chain, else the lowest failing height.

    An entry fails when its height is not its position, when it does not
    link to its predecessor (the first entry must link to 32 zero bytes),
    or when its stored hash is not the hash of its fields.
    """
    prev = GENESIS_PREV_HASH
    for index, entry in enumerate(chain):
        if entry.height != index or entry.prev_hash != prev or not entry._hash_matches:
            return index
        prev = entry.entry_hash
    return None


# --- persistence -----------------------------------------------------------
#
# One JSON object per line, keys in a fixed order, integers bare, binary
# fields as lowercase hex. Loading is strict: a line must match _ENTRY_LINE,
# the exact grammar entry_to_json_line writes, which rules out every other
# spelling of the same values.

_UINT = "(0|[1-9][0-9]{0,19})"  # 20 digits hold every 64-bit value; ChainEntry checks the range
_HASH = f"([0-9a-f]{{{2 * HASH_BYTES}}})"
_ID = f"([0-9a-f]{{{DEVICE_ID_HEX_DIGITS}}})"
_ENTRY_LINE = re.compile(
    f'{{"height":{_UINT},"prev_hash":"{_HASH}","device_id":"{_ID}","seq":{_UINT},'
    f'"t_init":{_UINT},"payload":"((?:[0-9a-f]{{2}})*)","auth_tag":"{_HASH}",'
    f'"trusted_node_id":"{_ID}","t_validated":{_UINT},"entry_hash":"{_HASH}"}}'
)


def entry_to_json_line(entry: ChainEntry) -> str:
    """The entry as one compact JSON object, byte-equal to json.dumps with
    separators=(",", ":"): integers bare, hex and device ids need no escape."""
    data = entry.data
    return (
        f'{{"height":{entry.height},"prev_hash":"{entry.prev_hash.hex()}",'
        f'"device_id":"{format_device_id(data.device_id)}","seq":{data.seq},'
        f'"t_init":{data.t_init},"payload":"{data.payload.hex()}",'
        f'"auth_tag":"{entry.auth_tag.hex()}",'
        f'"trusted_node_id":"{format_device_id(entry.trusted_node_id)}",'
        f'"t_validated":{entry.t_validated},"entry_hash":"{entry.hash_hex}"}}'
    )


def entry_from_json_line(line: str) -> ChainEntry:
    """Strictly parse one persisted entry; raises ValueError on any deviation."""
    match = _ENTRY_LINE.fullmatch(line)
    if match is None:
        raise ValueError("entry record is not in canonical form")
    height, prev_hash, device_id, seq, t_init, payload, tag, node, t_validated, entry_hash = (
        match.groups())
    return ChainEntry(
        int(height), bytes.fromhex(prev_hash),
        BlockData(int(device_id, 16), int(seq), int(t_init), bytes.fromhex(payload)),
        AuthTag(bytes.fromhex(tag)), int(node, 16), int(t_validated), bytes.fromhex(entry_hash),
    )


def save_chain(path: str | Path, chain: list[ChainEntry]) -> None:
    """Write each entry's json_line, one a line."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("".join([entry.json_line + "\n" for entry in chain]))


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
        except ValueError:
            bad = verify(entries)
            return index if bad is None else bad
    return verify(entries)


def verify_chain_file(path: str | Path) -> Optional[int]:
    return verify_chain_bytes(Path(path).read_bytes())
