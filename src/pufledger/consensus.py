"""Authentication-based consensus over PUF-backed blocks.

A device initiates a transaction by hashing its block data together with
one of its enrolled responses; only the hash travels, with the index of
the challenge it answered. A trusted node authenticates with one hash:
it recomputes the tag with the device's stored response at that index,
appends the block to its chain and rebroadcasts it to each peer with a
validation tag made for that peer, keyed by the peer's own stored
response at index `height % len`: one MAC per receiver, as PBFT's
authenticators are. A client builds the entry at its own height and tip,
recomputes the validation tag once with its own enrolled response at
that index, and appends an entry identical to the trusted node's: while
`ledger.make_entry`'s memo holds it, the same object.

Only the trusted node reads the registry, and only here. A client holds
its own responses and no other node's, so it can check a validation made
for it but cannot make one another client accepts.

Every protocol decision is made here, as a step on node state: `admits`
says on arrival whether a delivery is worth judging, `judge` gives the
verdict and the node it blames, and `penalize` docks trust and demotes.
A simulator only moves blocks and applies what these return.

No response ever crosses the network in any direction: origin blocks carry
the authentication tag, rebroadcasts add a validation tag, both are
SHA-256 outputs. Challenges are public in challenge-response
authentication, and a challenge index reveals no response: without the
device, or the registry, nobody can compute the tag it names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import UnknownDeviceError
from .ledger import (
    AuthTag,
    BlockData,
    ChainEntry,
    HASH_BYTES,
    append,
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


def _check_challenge_index(index: object) -> None:
    """A non-negative int, not a bool (which would pass as 0 or 1), or ValueError."""
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise ValueError(f"challenge_index must be a non-negative int, got {index!r}")


@dataclass(frozen=True)
class WireBlock:
    """Exactly what crosses the (simulated) network for one block.

    challenge_index names the enrolled challenge whose response keys
    auth_tag, a non-negative int; a rebroadcast carries its origin block's
    index. The three validation fields appear together on rebroadcasts from
    a trusted node and are absent on origin blocks.
    """

    data: BlockData
    auth_tag: AuthTag
    challenge_index: int
    validated_by: Optional[int] = None
    t_validated: Optional[int] = None
    validation_tag: Optional[bytes] = None

    def __post_init__(self) -> None:
        _check_challenge_index(self.challenge_index)
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
    challenges and their responses (its registry record's selector array
    and response tuple), its replica of the chain, and its bookkeeping.
    Only this module writes role, trust_value and penalties."""

    node_id: int
    role: str
    device: PufDevice
    challenges: np.ndarray
    responses: tuple[Response, ...]
    chain: list[ChainEntry] = field(default_factory=list)
    next_seq: int = 0
    trust_value: int = 0
    penalties: int = 0
    last_seq_accepted: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.role not in (ROLE_TRUSTED, ROLE_CLIENT):
            raise ValueError(f"role must be {ROLE_TRUSTED!r} or {ROLE_CLIENT!r}, got {self.role!r}")


class Verdict(NamedTuple):
    """Outcome of one node judging one block. Only a trusted node's accept,
    through judge, carries a rebroadcast: a (peer, block) pair per peer.
    Only a client's tag mismatch blames a node: the validator the block
    names."""

    accepted: bool
    reason: Optional[str]
    entry: Optional[ChainEntry]
    hashes_tried: int
    rebroadcast: Optional[tuple[tuple[int, WireBlock], ...]] = None
    blamed: Optional[int] = None


def initiate(node: NodeState, payload: bytes, challenge_index: int, now: int) -> WireBlock:
    """Build and sign the next block for this node's device.

    The device re-derives the enrolled response noiselessly on the spot;
    only the resulting tag and the challenge index are placed on the
    wire. Advances next_seq, unless the index is not a valid one.
    """
    _check_challenge_index(challenge_index)
    if challenge_index >= len(node.challenges):
        raise ValueError(
            f"challenge_index {challenge_index} out of range for {len(node.challenges)} enrolled"
        )
    data = BlockData(device_id=node.device.device_id, seq=node.next_seq, t_init=now, payload=payload)
    tag = make_auth_tag(data, reference_response(node.device, node.challenges[challenge_index]))
    block = WireBlock(data=data, auth_tag=tag, challenge_index=challenge_index)
    node.next_seq += 1
    return block


def _keyed_hash(message: bytes, response: Response) -> bytes:
    """An auth tag's digest for block data, a validation tag for an entry hash."""
    return sha256(message + response.packed())


def authenticate(trusted: NodeState, block: WireBlock, registry: Registry, now: int) -> Verdict:
    """Judge an origin block: recompute its tag once, with the device's
    stored response at the block's challenge index, guard against stale
    sequence numbers, then append.

    An index past the device's stored responses is a no-match with no hash
    tried; a wrong index, like a wrong tag, is a no-match after one. Every
    check that can raise runs before the node's state changes."""
    if trusted.role != ROLE_TRUSTED:
        raise ValueError("authenticate requires a trusted node")
    if block.is_validated:
        raise ValueError("authenticate judges origin blocks, not rebroadcasts")
    try:
        stored = lookup(registry, trusted.node_id, block.data.device_id)
    except UnknownDeviceError:
        return Verdict(False, REASON_UNKNOWN_DEVICE, None, 0)

    if block.challenge_index >= len(stored):
        return Verdict(False, REASON_NO_MATCH, None, 0)
    if _keyed_hash(block.data.encoded, stored[block.challenge_index]) != block.auth_tag.h:
        return Verdict(False, REASON_NO_MATCH, None, 1)

    last = trusted.last_seq_accepted.get(block.data.device_id)
    if last is not None and block.data.seq <= last:
        return Verdict(False, REASON_REPLAY, None, 1)

    entry = append(trusted.chain, block.data, block.auth_tag, trusted.node_id, now)
    trusted.last_seq_accepted[block.data.device_id] = block.data.seq
    trusted.trust_value += 1
    return Verdict(True, None, entry, 1)


def rebroadcasts(trusted: NodeState, block: WireBlock, entry: ChainEntry, registry: Registry,
                 peers: list[int]) -> tuple[tuple[int, WireBlock], ...]:
    """The accepted block once per peer, in peer order, each with the
    validation tag of entry keyed by that peer's stored response at index
    `height % len`."""
    pairs = []
    for peer in peers:
        stored = lookup(registry, trusted.node_id, peer)
        tag = _keyed_hash(entry.entry_hash, stored[entry.height % len(stored)])
        pairs.append((peer, WireBlock(block.data, block.auth_tag, block.challenge_index,
                                      trusted.node_id, entry.t_validated, tag)))
    return tuple(pairs)


def accept_validated(client: NodeState, block: WireBlock, trusted_id: int) -> Verdict:
    """Judge a rebroadcast: check it names the trusted node, guard against
    replays, then recompute the validation tag once, with the client's own
    enrolled response at the index the validator used for this height. On
    success the appended entry is bit-identical to the trusted node's
    entry, and while `make_entry`'s memo holds it, the same object."""
    if client.role != ROLE_CLIENT:
        raise ValueError("accept_validated requires a client node")
    if block.validated_by != trusted_id:  # also None: an unvalidated block
        return Verdict(False, REASON_NOT_FROM_TRUSTED, None, 0)

    last = client.last_seq_accepted.get(block.data.device_id)
    if last is not None and block.data.seq <= last:
        return Verdict(False, REASON_REPLAY, None, 0)

    candidate = make_entry(len(client.chain), tip_hash(client.chain), block.data,
                           block.auth_tag, block.validated_by, block.t_validated)
    # a candidate at another height or tip than the validator's has another
    # entry hash, so no response could match it
    own = client.responses
    expected = _keyed_hash(candidate.entry_hash, own[candidate.height % len(own)])
    if expected != block.validation_tag:
        return Verdict(False, REASON_NO_MATCH, None, 1, blamed=trusted_id)
    client.chain.append(candidate)
    client.last_seq_accepted[block.data.device_id] = block.data.seq
    return Verdict(True, None, candidate, 1)


def admits(node: NodeState, block: WireBlock, trusted: NodeState) -> bool:
    """Whether node spends work on block: an origin block only at a trusted
    node, a rebroadcast only if it names the trusted node, not demoted."""
    if block.is_validated:
        return block.validated_by == trusted.node_id and trusted.role == ROLE_TRUSTED
    return node.role == ROLE_TRUSTED


def judge(node: NodeState, block: WireBlock, registry: Registry, peers: list[int],
          now: int) -> Optional[Verdict]:
    """Judge an admitted block when the work ends; an accepted origin block
    carries its rebroadcasts to peers. An origin block's authority is
    checked again (None: node was demoted while it waited), a rebroadcast's
    admission is not."""
    if block.is_validated:
        return accept_validated(node, block, registry.trusted_id)
    if node.role != ROLE_TRUSTED:
        return None
    verdict = authenticate(node, block, registry, now)
    if not verdict.accepted:
        return verdict
    return verdict._replace(rebroadcast=rebroadcasts(node, block, verdict.entry, registry, peers))


def penalize(node: NodeState, demotion_threshold: int) -> bool:
    """Charge a blamed node one penalty and one trust point; True when this
    demotes it to a client, at demotion_threshold penalties (0: never)."""
    node.penalties += 1
    node.trust_value -= 1
    demoted = 0 < demotion_threshold <= node.penalties and node.role == ROLE_TRUSTED
    if demoted:
        node.role = ROLE_CLIENT
    return demoted


def pow_mine_baseline(data: BlockData, difficulty_bits: int) -> tuple[int, bytes]:
    """Find the smallest nonce whose SHA-256(data.encoded || nonce) starts with
    difficulty_bits zero bits. The throwaway work against which
    authentication is benchmarked."""
    if not 0 <= difficulty_bits <= 32:
        raise ValueError(f"difficulty_bits must be in [0, 32], got {difficulty_bits}")
    prefixed = hashlib.sha256(data.encoded)  # hashed once, copied per nonce
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
