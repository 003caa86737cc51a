"""Challenge-response registry: the network's secure enrollment database.

At enrollment a device's candidate challenges are screened and the noiseless
reference response of every survivor is stored. Records are append-only:
a device enrolls once and its record never changes afterwards.

Reads are gated. Trusted nodes may fetch any device's stored responses
(never the challenges). Ordinary clients get no general read access; they
only receive the narrow view needed to check a trusted node's identity,
via trusted_view().
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    AccessDeniedError,
    EnrollmentFailedError,
    RegistryConflictError,
    UnknownDeviceError,
)
from .fom import ScreeningPolicy, screen_pool
from .puf import (
    RESPONSE_BITS,
    Challenge,
    PufDevice,
    Response,
    format_device_id,
    random_challenge,
    read_seeds,
)

_EVAL_SEED_BOUND = 1 << 63
_CANDIDATE_BLOCK = 64


@dataclass(frozen=True)
class CrpRecord:
    """All enrolled challenge/response pairs for one device, in screening order."""

    device_id: int
    pairs: tuple[tuple[Challenge, Response], ...]
    enrolled_at: int

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a record must hold at least one challenge/response pair")
        if len(set(self.challenges)) != len(self.pairs):
            raise ValueError("a record must not repeat a challenge")

    @property
    def challenges(self) -> tuple[Challenge, ...]:
        return tuple(challenge for challenge, _ in self.pairs)

    @property
    def responses(self) -> tuple[Response, ...]:
        return tuple(response for _, response in self.pairs)


class Registry:
    """Records keyed by device id plus the ACL of trusted node ids."""

    def __init__(self, trusted_node_ids: Iterable[int] = ()) -> None:
        self._records: dict[int, CrpRecord] = {}
        self._trusted: frozenset[int] = frozenset(trusted_node_ids)

    @property
    def trusted_node_ids(self) -> frozenset[int]:
        return self._trusted

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

    All randomness (candidate draws and screening re-read jitter) comes from
    one generator seeded by `seed`, consumed in a fixed order: for each
    candidate, first the challenge, then its n_screen_reevals read seeds.
    Raises when the device already has a record or when nothing survives.
    """
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    if registry.has_device(device.device_id):
        raise RegistryConflictError(
            f"device {format_device_id(device.device_id)} is already enrolled"
        )
    rng = np.random.default_rng([seed])

    def candidates():
        # read seed words are hashed a block of candidates at a time
        for start in range(0, n_candidates, _CANDIDATE_BLOCK):
            block = [(random_challenge(device.bank_size, RESPONSE_BITS, rng),
                      rng.integers(0, _EVAL_SEED_BOUND, size=policy.n_screen_reevals))
                     for _ in range(min(_CANDIDATE_BLOCK, n_candidates - start))]
            words = read_seeds(np.stack([seeds for _, seeds in block]))
            yield from zip([challenge for challenge, _ in block], words)

    pairs = screen_pool(device, candidates(), policy)
    if not pairs:
        raise EnrollmentFailedError(
            f"screening rejected all {n_candidates} candidates for device "
            f"{format_device_id(device.device_id)}"
        )
    record = CrpRecord(device_id=device.device_id, pairs=tuple(pairs), enrolled_at=0)
    registry._records[device.device_id] = record
    return record


def lookup(registry: Registry, requester_node_id: int, device_id: int) -> tuple[Response, ...]:
    """Stored responses for a device, in enrollment order. Trusted readers only.

    Challenges are never returned: a reader can check tags, not mint new
    enrollments.
    """
    if requester_node_id not in registry.trusted_node_ids:
        raise AccessDeniedError(
            f"node {format_device_id(requester_node_id)} has no registry read access"
        )
    if not registry.has_device(device_id):
        raise UnknownDeviceError(device_id)
    return registry._records[device_id].responses


def trusted_view(registry: Registry) -> dict[int, tuple[Response, ...]]:
    """The one slice of the registry every client may read: the stored
    responses of each enrolled trusted node, by node id, used to check that
    a validated block really came from a trusted node."""
    return {
        node_id: registry._records[node_id].responses
        for node_id in sorted(registry.trusted_node_ids)
        if registry.has_device(node_id)
    }


# --- persistence -----------------------------------------------------------

def record_to_json_line(record: CrpRecord) -> str:
    obj = {
        "device_id": format_device_id(record.device_id),
        "enrolled_at": record.enrolled_at,
        "pairs": [
            {"challenge": np.column_stack((challenge.set1_idx, challenge.set2_idx)).tolist(),
             "response": response.hex()}
            for challenge, response in record.pairs
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


def save_registry(path: str | Path, registry: Registry) -> None:
    """Write the ACL header line, then one canonical record line per device."""
    header = json.dumps(
        {"trusted_node_ids": [format_device_id(i) for i in sorted(registry.trusted_node_ids)]},
        separators=(",", ":"),
    )
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for device_id in registry.device_ids:
            fh.write(record_to_json_line(registry._records[device_id]) + "\n")
