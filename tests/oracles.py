"""Small reference functions that only the tests need: the wire rendering
c08 scans for leaked responses, the leading-zero count the proof-of-work
tests check digests with, and the Hamming distance the screening and
evaluation tests count bit errors with."""

import json

import numpy as np

from pufledger.consensus import WireBlock
from pufledger.puf import Response, format_device_id


def wire_to_json(block: WireBlock) -> str:
    """The block as it would travel: compact JSON of every field it carries."""
    obj = {
        "device_id": format_device_id(block.data.device_id),
        "seq": block.data.seq,
        "t_init": block.data.t_init,
        "payload": block.data.payload.hex(),
        "auth_tag": block.auth_tag.hex(),
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
