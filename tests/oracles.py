"""Small reference functions that only the tests need: the wire rendering
c08 scans for leaked responses, the leading-zero count the proof-of-work
tests check digests with, the Hamming distance the screening and
evaluation tests count bit errors with, and screening one challenge row
at a time."""

import json
from typing import NamedTuple

import numpy as np

from pufledger.consensus import WireBlock
from pufledger.fom import screen_pool
from pufledger.puf import Response, format_device_id, reference_response


def wire_to_json(block: WireBlock) -> str:
    """The block as it would travel: compact JSON of every field it carries."""
    obj = {
        "device_id": format_device_id(block.data.device_id),
        "seq": block.data.seq,
        "t_init": block.data.t_init,
        "payload": block.data.payload.hex(),
        "auth_tag": block.auth_tag.hex(),
        "challenge_index": block.challenge_index,
    }
    if block.is_validated:
        obj["validated_by"] = format_device_id(block.validated_by)
        obj["t_validated"] = block.t_validated
        obj["validation_tag"] = block.validation_tag.hex()
    return json.dumps(obj, separators=(",", ":"))


def leading_zero_bits(digest: bytes) -> int:
    value = int.from_bytes(digest, "big")
    return len(digest) * 8 - value.bit_length()


def hamming(a: Response, b: Response) -> int:
    """The number of bits in which two equally long responses differ."""
    if a.n_bits != b.n_bits:
        raise ValueError("responses differ in length")
    return int(np.count_nonzero(a.bits != b.bits))


class Screened(NamedTuple):
    accepted: bool
    reference: np.ndarray  # the noiseless bits, as a bool array


def screen_one(device, challenge, policy, rng):
    """screen_pool on the one-row chunk of a (2, n_bits) challenge row:
    whether it was kept, and its noiseless bits (which screen_pool returns
    for a kept row, and must return right)."""
    kept, refs = screen_pool(device, challenge[None], policy, rng)
    reference = reference_response(device, challenge).bits.astype(bool)
    assert all(np.array_equal(bits, reference) for bits in refs)
    return Screened(len(kept) == 1, reference)
