"""The challenge-response registry: the network's secure enrollment database.

At enrollment a device's candidate challenges are screened and the noiseless
reference response of every survivor is stored. A record holds its
challenges as one read-only (k, 2, n_bits) selector array, a row per
challenge as puf.random_challenge draws them, next to a tuple of k
responses. Records are append-only: a device enrolls once and its record
never changes afterwards.

Reads are gated. The one trusted node may fetch any device's stored
responses (never the challenges). Ordinary clients get no general read
access; they only receive the narrow view needed to check the trusted
node's validations, via trusted_view().
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    AccessDeniedError,
    EnrollmentFailedError,
    RegistryConflictError,
    UnknownDeviceError,
)
from .fom import ScreeningPolicy, screen_pool
from .puf import RESPONSE_BITS, PufDevice, Response, challenge_chunks, format_device_id


@dataclass(frozen=True, eq=False)
class CrpRecord:
    """All enrolled challenge/response pairs for one device, in screening
    order: challenges[i], a (2, n_bits) selector row, and responses[i]."""

    device_id: int
    challenges: np.ndarray
    responses: tuple[Response, ...]

    def __post_init__(self) -> None:
        if not self.responses:
            raise ValueError("a record must hold at least one challenge/response pair")

    @property
    def pairs(self) -> tuple[tuple[np.ndarray, Response], ...]:
        """(challenge row, response) pairs, rebuilt per call; perfbench counts them."""
        return tuple(zip(self.challenges, self.responses))


class Registry:
    """Records keyed by device id plus the id of the one node with read
    access, if any."""

    def __init__(self, trusted_id: Optional[int] = None) -> None:
        self._records: dict[int, CrpRecord] = {}
        self.trusted_id = trusted_id

    @property
    def device_ids(self) -> tuple[int, ...]:
        return tuple(self._records.keys())

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
    concatenated into the record's one read-only challenge array, which
    shares no memory with a drawn chunk, and only a kept row gets a
    Response. Raises when the device already has a record or when nothing
    survives.
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
    challenges = np.concatenate(kept_rows)
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


def trusted_view(registry: Registry) -> tuple[int, tuple[Response, ...]]:
    """The one slice of the registry every client may read: the trusted
    node's id and its stored responses, used to check that a validated
    block really came from it. Raises when that node is not enrolled."""
    trusted_id = registry.trusted_id
    if not registry.has_device(trusted_id):  # also None: no trusted node
        raise UnknownDeviceError(trusted_id)
    return trusted_id, registry._records[trusted_id].responses


# --- persistence -----------------------------------------------------------

# decimal spellings of the default bank's indices, fixed at import so that a bank
# near 2**31 allocates nothing more; an index past the end is spelled by str()
_INDEX_STRS = tuple(map(str, range(256)))


def record_to_json_line(record: CrpRecord) -> str:
    """The record as one compact JSON object, byte-equal to json.dumps with
    separators=(",", ":"): each challenge is its list of [set1, set2] index
    pairs, next to its response's hex; "enrolled_at" is always 0."""
    n = len(_INDEX_STRS)
    pairs = []
    for (set1, set2), response in zip(record.challenges.tolist(), record.responses):
        set1 = [_INDEX_STRS[i] if i < n else str(i) for i in set1]
        set2 = [_INDEX_STRS[i] if i < n else str(i) for i in set2]
        pairs.append(f'{{"challenge":[[{"],[".join(map(",".join, zip(set1, set2)))}]],'
                     f'"response":"{response.hex()}"}}')
    return (f'{{"device_id":"{format_device_id(record.device_id)}",'
            f'"enrolled_at":0,"pairs":[{",".join(pairs)}]}}')


def save_registry(path: str | Path, registry: Registry) -> None:
    """Write the ACL header line, then one canonical record line per device."""
    trusted = [] if registry.trusted_id is None else [format_device_id(registry.trusted_id)]
    header = json.dumps({"trusted_node_ids": trusted}, separators=(",", ":"))
    lines = [header] + [record_to_json_line(registry._records[device_id])
                        for device_id in registry.device_ids]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("".join([line + "\n" for line in lines]))
