"""The challenge-response registry: the network's secure enrollment database.

At enrollment a device's candidate challenges are screened and the noiseless
reference response of every survivor is stored. A record holds its
challenges as one read-only (k, 2, n_bits) selector array, a row per
challenge as puf.random_challenge draws them, in puf.selector_dtype of the
device's bank (uint8 at the default 256 oscillators a bank), next to a
tuple of k responses. Records are append-only: a device enrolls once and
its record never changes afterwards.

Reads are gated. The one trusted node may fetch any device's stored
responses (never the challenges); no other node reads the registry.

save_registry writes a record at a time, each as one compact json.dumps
line, spelling a chunk of challenges per gather from a fixed table of
digit-group tokens; it never holds more than one record's line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .errors import (
    AccessDeniedError,
    EnrollmentFailedError,
    RegistryConflictError,
    UnknownDeviceError,
)
from .fom import ScreeningPolicy, screen_pool
from .puf import (CHUNK_ROWS, RESPONSE_BITS, PufDevice, Response, challenge_chunks,
                  format_device_id, selector_dtype)


@dataclass(frozen=True, eq=False)
class CrpRecord:
    """All enrolled challenge/response pairs for one device, in screening
    order: challenges[i], a (2, n_bits) selector row, and responses[i].
    Raises ValueError unless there is at least one response and challenges
    has shape (k, 2, n_bits) for k responses."""

    device_id: int
    challenges: np.ndarray
    responses: tuple[Response, ...]

    def __post_init__(self) -> None:
        if not self.responses:
            raise ValueError("a record must hold at least one challenge/response pair")
        shape = np.shape(self.challenges)
        if len(shape) != 3 or shape[:2] != (len(self.responses), 2):
            raise ValueError(f"challenges of shape {shape} do not pair with "
                             f"{len(self.responses)} responses as (k, 2, n_bits)")

    @property
    def pairs(self) -> tuple[tuple[np.ndarray, Response], ...]:
        """(challenge row, response) pairs, rebuilt per call; perfbench counts them."""
        return tuple(zip(self.challenges, self.responses))


class Registry:
    """Records keyed by device id plus the id of the one node with read
    access."""

    def __init__(self, trusted_id: int) -> None:
        self._records: dict[int, CrpRecord] = {}
        self.trusted_id = trusted_id

    def has_device(self, device_id: int) -> bool:
        return device_id in self._records


def enroll(
    registry: Registry,
    device: PufDevice,
    n_candidates: int,
    policy: ScreeningPolicy,
    seed: int,
) -> CrpRecord:
    """Screen n_candidates random RESPONSE_BITS-bit challenges and store the
    survivors.

    All randomness (candidate draws and screening read jitter) comes from
    one generator seeded by `seed`, consumed in a fixed order: a chunk of
    candidates (puf.challenge_chunks), then that chunk's noisy reads in
    rounds (fom.screen_pool), each round one read of every candidate still
    alive, in row order, one normal for each of its puf.uncertain_races,
    until each has read n_screen_reevals times or failed, then the next
    chunk. Every candidate is screened once and reads up to its first
    failing read; one rejected for randomness, or any candidate of a
    noiseless device, draws no reads. The kept rows of every chunk are
    concatenated into the record's one read-only challenge array, in
    puf.selector_dtype of the bank (an eighth of the drawn int64 chunks'
    memory at the default bank) and sharing none with them, and only a
    kept row gets a Response. Raises when the device already has a record
    or when nothing survives.
    """
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    if registry.has_device(device.device_id):
        raise RegistryConflictError(
            f"device {format_device_id(device.device_id)} is already enrolled"
        )
    rng = np.random.default_rng([seed])
    kept_rows, responses = [], []
    for chunk in challenge_chunks(device.bank_size, RESPONSE_BITS, n_candidates, rng):
        kept, refs = screen_pool(device, chunk, policy, rng)
        kept_rows.append(chunk[kept])
        responses += map(Response, refs)
    if not responses:
        raise EnrollmentFailedError(
            f"screening rejected all {n_candidates} candidates for device "
            f"{format_device_id(device.device_id)}"
        )
    # unsafe only in name: every drawn selector is below bank_size
    challenges = np.concatenate(kept_rows, dtype=selector_dtype(device.bank_size),
                                casting="unsafe")
    challenges.setflags(write=False)
    record = CrpRecord(device.device_id, challenges, tuple(responses))
    registry._records[device.device_id] = record
    return record


def lookup(registry: Registry, requester_node_id: int, device_id: int) -> tuple[Response, ...]:
    """Stored responses for a device, in enrollment order. Trusted readers only.

    Challenges are never returned: a reader can check tags, not mint new
    enrollments.
    """
    if requester_node_id != registry.trusted_id:
        raise AccessDeniedError(
            f"node {format_device_id(requester_node_id)} has no registry read access"
        )
    if not registry.has_device(device_id):
        raise UnknownDeviceError(device_id)
    return registry._records[device_id].responses


# --- persistence -----------------------------------------------------------

# Fixed-width, NUL-padded tokens, one per base-1000 digit group of a selector,
# at row kind * 1000 + group with kind = side * 4 + lead * 2 + last (side 0 is
# set1). A lead group is unpadded and the others have 3 digits; set1's lead
# opens its pair with "[" and its last group ends with ",", set2's last with
# "],". Row 8000 is empty, the slots before a short selector's lead, and 8001
# ends a challenge. One table of 8,002 rows serves every index.
_TOKENS = np.array([
    ("[" * lead * (side == 0) + (str(g) if lead else f"{g:03d}") + (",", "],")[side] * last)
    .encode() for side in (0, 1) for lead in (0, 1) for last in (0, 1) for g in range(1000)
] + [b"", b"|"], dtype="S5")
_EMPTY, _ROW_END = 8000, 8001
_SIDE = np.array([[0], [4000]])  # token rows of set1, set2 selectors


def record_to_json_line(record: CrpRecord) -> str:
    """The record as one compact JSON object, byte-equal to json.dumps with
    separators=(",", ":"): each challenge is its list of [set1, set2] index
    pairs, next to its response's hex; "enrolled_at" is always 0. Raises
    ValueError on a negative selector, which no challenge can hold."""
    pairs = []
    for start in range(0, len(record.challenges), CHUNK_ROWS):
        chunk = record.challenges[start:start + CHUNK_ROWS]
        if chunk.min() < 0:
            raise ValueError(f"a selector is negative: {int(chunk.min())}")
        n_groups = (len(str(int(chunk.max()))) + 2) // 3
        tokens = np.empty((len(chunk), chunk[0].size * n_groups + 1), np.int64)
        tokens[:, -1] = _ROW_END
        # token slots in text order (row, pair, side, group), indexed like the chunk
        slots = tokens[:, :-1].reshape(len(chunk), -1, 2, n_groups).transpose(0, 2, 1, 3)
        # in the chunk's own dtype: 1000 * (x // 1000) never exceeds x, and 8 bits hold one group
        above = chunk  # each selector down to the current group
        for k in range(n_groups - 1, -1, -1):
            higher = above // 1000 if k else 0  # n_groups leaves nothing above group 0
            kind = _SIDE + 1000 * (k == n_groups - 1) + 2000 * (higher == 0)
            np.add(kind, above - 1000 * higher, out=slots[..., k])
            if k < n_groups - 1:
                slots[..., k][above == 0] = _EMPTY
            above = higher
        # each challenge's "[a,b],…,[y,z]," between row ends
        texts = _TOKENS.take(tokens).tobytes().translate(None, b"\0").decode("ascii").split("|")
        pairs += [f'{{"challenge":[{text[:-1]}],"response":"{response.hex()}"}}'
                  for text, response in zip(texts, record.responses[start:start + CHUNK_ROWS])]
    return (f'{{"device_id":"{format_device_id(record.device_id)}",'
            f'"enrolled_at":0,"pairs":[{",".join(pairs)}]}}')


def save_registry(path: str | Path, registry: Registry) -> None:
    """Write the ACL header line, then one canonical record line per device,
    a record at a time."""
    header = json.dumps({"trusted_node_ids": [format_device_id(registry.trusted_id)]},
                        separators=(",", ":"))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for record in registry._records.values():
            fh.write(record_to_json_line(record))
            fh.write("\n")
