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
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import (
    AccessDeniedError,
    EnrollmentFailedError,
    RegistryConflictError,
    UnknownDeviceError,
)
from .fom import ScreeningPolicy, screen_pool
from .puf import (
    Challenge,
    PufDevice,
    Response,
    format_device_id,
    parse_device_id,
    random_challenge,
)

_EVAL_SEED_BOUND = 1 << 63


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

    def record_for_enrollee(self, device_id: int) -> CrpRecord:
        """The enrollee's own copy of its record (it owns the device anyway)."""
        if device_id not in self._records:
            raise UnknownDeviceError(device_id)
        return self._records[device_id]

    def _store(self, record: CrpRecord) -> None:
        if record.device_id in self._records:
            raise RegistryConflictError(
                f"device {format_device_id(record.device_id)} is already enrolled"
            )
        self._records[record.device_id] = record


def enroll(
    registry: Registry,
    device: PufDevice,
    n_candidates: int,
    policy: ScreeningPolicy,
    seed: int,
    enrolled_at: int = 0,
    response_bits: int = 128,
) -> CrpRecord:
    """Screen n_candidates random challenges and store the survivors.

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
    candidates = (
        (random_challenge(device.bank_size, response_bits, rng),
         rng.integers(0, _EVAL_SEED_BOUND, size=policy.n_screen_reevals).tolist())
        for _ in range(n_candidates)
    )
    pairs = screen_pool(device, candidates, policy)
    if not pairs:
        raise EnrollmentFailedError(
            f"screening rejected all {n_candidates} candidates for device "
            f"{format_device_id(device.device_id)}"
        )
    record = CrpRecord(device_id=device.device_id, pairs=tuple(pairs), enrolled_at=enrolled_at)
    registry._store(record)
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


@dataclass(frozen=True)
class TrustedView:
    """The one slice of the registry every client may read: the stored
    responses of the trusted nodes themselves, used to check that a
    validated block really came from a trusted node."""

    responses_by_node: Mapping[int, tuple[Response, ...]]

    def responses_for(self, node_id: int) -> Optional[tuple[Response, ...]]:
        return self.responses_by_node.get(node_id)


def trusted_view(registry: Registry) -> TrustedView:
    view = {
        node_id: registry._records[node_id].responses
        for node_id in sorted(registry.trusted_node_ids)
        if registry.has_device(node_id)
    }
    return TrustedView(responses_by_node=view)


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


def record_from_json_line(line: str) -> CrpRecord:
    obj = json.loads(line)
    expected = ("device_id", "enrolled_at", "pairs")
    if not isinstance(obj, dict) or tuple(obj.keys()) != expected:
        raise ValueError(f"registry record must have exactly the keys {list(expected)} in order")
    pairs = []
    for item in obj["pairs"]:
        challenge = Challenge.from_pairs([(int(i), int(j)) for i, j in item["challenge"]])
        n_bits = len(item["challenge"])
        pairs.append((challenge, Response.from_hex(item["response"], n_bits)))
    record = CrpRecord(
        device_id=parse_device_id(obj["device_id"]),
        pairs=tuple(pairs),
        enrolled_at=int(obj["enrolled_at"]),
    )
    if record_to_json_line(record) != line:
        raise ValueError("registry record is not in canonical form")
    return record


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


def load_registry(path: str | Path, trusted_node_ids: Optional[Iterable[int]] = None) -> Registry:
    """Reload a saved registry. The file's own ACL header applies unless the
    caller explicitly passes a replacement list."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("registry file is empty; expected an ACL header line")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or tuple(header.keys()) != ("trusted_node_ids",):
        raise ValueError("registry file must start with a trusted_node_ids header line")
    if trusted_node_ids is None:
        trusted_node_ids = [parse_device_id(i) for i in header["trusted_node_ids"]]
    registry = Registry(trusted_node_ids)
    for line in lines[1:]:
        if line:
            registry._store(record_from_json_line(line))
    return registry
