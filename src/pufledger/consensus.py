"""Authentication-based consensus over PUF-backed blocks.

A device initiates a transaction by hashing its block data together with
one of its enrolled responses; only the hash travels. A node holds its
enrolled challenges as its registry record does, one (k, 2, n_bits)
selector array with a row per challenge, and its device re-derives a
response from a row noiselessly. A trusted node authenticates by linearly
scanning the device's stored responses and recomputing the tag for each
until one matches, then appends the block to its chain and rebroadcasts
it with a validation tag of its own, made with its stored response at
index `height % len(challenges)`. Clients drop anything not validated by a
trusted node, rebuild the entry at their own height and tip, recompute the
validation tag once with the trusted node's stored response at that same
index, and append an entry identical to the trusted node's.

No response ever crosses the network in any direction: origin blocks carry
the authentication tag, rebroadcasts add a validation tag, both are
SHA-256 outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import UnknownDeviceError
from .ledger import (
    AuthTag,
    BlockData,
    ChainEntry,
    HASH_BYTES,
    append,
    canonical_bytes,
    make_auth_tag,
    make_entry,
    sha256,
    tip_hash,
)
from .puf import PufDevice, Response, reference_response
from .registry import Registry, lookup

ROLE_TRUSTED = "trusted"
ROLE_CLIENT = "client"

REASON_NO_MATCH = "no-match"
REASON_UNKNOWN_DEVICE = "unknown-device"
REASON_REPLAY = "replay"
REASON_NOT_FROM_TRUSTED = "not-from-trusted"


@dataclass(frozen=True)
class WireBlock:
    """Exactly what crosses the (simulated) network for one block.

    The three validation fields appear together on rebroadcasts from a
    trusted node and are absent on origin blocks.
    """

    data: BlockData
    auth_tag: AuthTag
    validated_by: Optional[int] = None
    t_validated: Optional[int] = None
    validation_tag: Optional[bytes] = None

    def __post_init__(self) -> None:
        tag = self.validation_tag
        if not (self.validated_by is None) == (self.t_validated is None) == (tag is None):
            raise ValueError(
                "validated_by, t_validated and validation_tag must appear together"
            )
        if tag is not None and len(tag) != HASH_BYTES:
            raise ValueError(f"validation_tag must be {HASH_BYTES} bytes")

    @property
    def is_validated(self) -> bool:
        return self.validated_by is not None


@dataclass
class NodeState:
    """Everything one network participant owns: its device, its enrolled
    challenges (its registry record's selector array), its replica of the
    chain, and its bookkeeping."""

    node_id: int
    role: str
    device: PufDevice
    challenges: np.ndarray
    chain: list[ChainEntry] = field(default_factory=list)
    next_seq: int = 0
    trust_value: int = 0
    last_seq_accepted: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.role not in (ROLE_TRUSTED, ROLE_CLIENT):
            raise ValueError(f"role must be {ROLE_TRUSTED!r} or {ROLE_CLIENT!r}, got {self.role!r}")


class Verdict(NamedTuple):
    """Outcome of one node judging one block. Only a trusted node's accept
    carries a rebroadcast."""

    accepted: bool
    reason: Optional[str]
    entry: Optional[ChainEntry]
    hashes_tried: int
    rebroadcast: Optional[WireBlock] = None


def initiate(node: NodeState, payload: bytes, challenge_index: int, now: int) -> WireBlock:
    """Build and sign the next block for this node's device.

    The device re-derives the enrolled response noiselessly on the spot;
    only the resulting tag is placed on the wire. Advances next_seq.
    """
    if not 0 <= challenge_index < len(node.challenges):
        raise ValueError(
            f"challenge_index {challenge_index} out of range for {len(node.challenges)} enrolled"
        )
    data = BlockData(device_id=node.device.device_id, seq=node.next_seq, t_init=now, payload=payload)
    response = reference_response(node.device, node.challenges[challenge_index])
    tag = make_auth_tag(data, response)
    node.next_seq += 1
    return WireBlock(data=data, auth_tag=tag)


def _validation_tag(entry_hash: bytes, response) -> bytes:
    return sha256(entry_hash + response.packed())


def authenticate(trusted: NodeState, block: WireBlock, registry: Registry, now: int) -> Verdict:
    """Judge an origin block: scan the device's stored responses for one
    whose recomputed tag matches, guard against stale sequence numbers,
    then append and rebroadcast with this node's validation tag.

    Work is bounded by one tag recomputation per stored response. Every
    check that can raise runs before the node's state changes."""
    if trusted.role != ROLE_TRUSTED:
        raise ValueError("authenticate requires a trusted node")
    if block.is_validated:
        raise ValueError("authenticate judges origin blocks, not rebroadcasts")
    if len(trusted.challenges) == 0:
        raise ValueError("trusted node has no enrolled challenges to validate with")
    try:
        stored = lookup(registry, trusted.node_id, block.data.device_id)
    except UnknownDeviceError:
        return Verdict(False, REASON_UNKNOWN_DEVICE, None, 0)

    # make_auth_tag's digest, with the block encoded once for the whole scan
    prefix = canonical_bytes(block.data)
    for hashes, response in enumerate(stored, start=1):
        if sha256(prefix + response.packed()) == block.auth_tag.h:
            break
    else:
        return Verdict(False, REASON_NO_MATCH, None, len(stored))

    last = trusted.last_seq_accepted.get(block.data.device_id)
    if last is not None and block.data.seq <= last:
        return Verdict(False, REASON_REPLAY, None, hashes)

    entry = append(trusted.chain, block.data, block.auth_tag, trusted.node_id, now)
    trusted.last_seq_accepted[block.data.device_id] = block.data.seq
    trusted.trust_value += 1

    pick = entry.height % len(trusted.challenges)
    own_response = reference_response(trusted.device, trusted.challenges[pick])
    rebroadcast = WireBlock(
        data=block.data,
        auth_tag=block.auth_tag,
        validated_by=trusted.node_id,
        t_validated=now,
        validation_tag=_validation_tag(entry.entry_hash, own_response),
    )
    return Verdict(True, None, entry, hashes, rebroadcast)


def accept_validated(client: NodeState, block: WireBlock,
                     view: Mapping[int, tuple[Response, ...]], now: int) -> Verdict:
    """Judge a rebroadcast: check it names a trusted node, guard against
    replays, then recompute the validation tag once, with the trusted
    node's stored response at the index it used for this height. On
    success the appended entry is bit-identical to the trusted node's
    entry."""
    if client.role != ROLE_CLIENT:
        raise ValueError("accept_validated requires a client node")
    if not block.is_validated:
        return Verdict(False, REASON_NOT_FROM_TRUSTED, None, 0)
    stored = view.get(block.validated_by)
    if stored is None:
        return Verdict(False, REASON_NOT_FROM_TRUSTED, None, 0)

    last = client.last_seq_accepted.get(block.data.device_id)
    if last is not None and block.data.seq <= last:
        return Verdict(False, REASON_REPLAY, None, 0)

    candidate = make_entry(
        height=len(client.chain),
        prev_hash=tip_hash(client.chain),
        data=block.data,
        auth_tag=block.auth_tag,
        trusted_node_id=block.validated_by,
        t_validated=block.t_validated,
    )
    # a candidate at another height or tip than the validator's has another
    # entry hash, so no stored response could match it
    expected = _validation_tag(candidate.entry_hash, stored[candidate.height % len(stored)])
    if expected != block.validation_tag:
        return Verdict(False, REASON_NO_MATCH, None, 1)
    client.chain.append(candidate)
    client.last_seq_accepted[block.data.device_id] = block.data.seq
    return Verdict(True, None, candidate, 1)


def pow_mine_baseline(data: BlockData, difficulty_bits: int) -> tuple[int, bytes]:
    """Find the smallest nonce whose SHA-256(canonical || nonce) starts with
    difficulty_bits zero bits. The throwaway work against which
    authentication is benchmarked."""
    if not 0 <= difficulty_bits <= 32:
        raise ValueError(f"difficulty_bits must be in [0, 32], got {difficulty_bits}")
    prefixed = hashlib.sha256(canonical_bytes(data))  # hashed once, copied per nonce
    n_zero_bytes, rem = divmod(difficulty_bits, 8)
    zero_prefix = bytes(n_zero_bytes)
    limit = 1 << (8 - rem) if rem else 0x100
    nonce = 0
    while True:
        h = prefixed.copy()
        h.update(nonce.to_bytes(8, "big"))
        digest = h.digest()
        if digest.startswith(zero_prefix) and digest[n_zero_bytes] < limit:
            return nonce, digest
        nonce += 1
