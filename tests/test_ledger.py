import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufledger.ledger import (
    AuthTag,
    BlockData,
    append,
    make_auth_tag,
    save_chain,
    verify,
    verify_chain_bytes,
    verify_chain_file,
    GENESIS_PREV_HASH,
    ChainEntry,
    entry_from_json_line,
    entry_to_json_line,
    make_entry,
    sha256,
)
from pufledger import ScenarioConfig, run_scenario
from pufledger.cli import main
from pufledger.errors import ConfigError, PayloadSizeError
from pufledger.puf import Response, format_device_id
from sha256_oracle import sha256_pure


def response_from_int(value: int) -> Response:
    raw = value.to_bytes(16, "big")
    return Response(np.unpackbits(np.frombuffer(raw, dtype=np.uint8)))


R1 = response_from_int(0x0123456789ABCDEF0123456789ABCDEF)
R2 = response_from_int(0xFEDCBA9876543210FEDCBA9876543210)


def sample_chain(n: int, payload_bytes: int = 5) -> list[ChainEntry]:
    rng = np.random.default_rng(77)
    chain: list[ChainEntry] = []
    for k in range(n):
        data = BlockData(
            device_id=0x00DEADBEEF00 + k,
            seq=k,
            t_init=1_000 + 7 * k,
            payload=bytes(rng.bytes(payload_bytes)),
        )
        tag = make_auth_tag(data, R1 if k % 2 == 0 else R2)
        append(chain, data, tag, trusted_node_id=0xAA55AA55AA55, t_validated=2_000 + 7 * k)
    return chain


# --- hashing -------------------------------------------------------------------

def test_sha256_matches_independent_implementation():
    rng = np.random.default_rng(1)
    for n in (0, 1, 31, 32, 55, 56, 63, 64, 65, 200, 1000):
        blob = bytes(rng.bytes(n)) if n else b""
        assert sha256(blob) == sha256_pure(blob)
        assert sha256(blob) == hashlib.sha256(blob).digest()


def test_sha256_standard_vectors():
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_sha256_avalanche():
    # flipping any single input bit moves about half the output bits
    rng = np.random.default_rng(2)
    base = bytes(rng.bytes(26))
    reference = int.from_bytes(sha256(base), "big")
    distances = []
    for byte_pos in range(len(base)):
        mutated = bytearray(base)
        mutated[byte_pos] ^= 1
        flipped = int.from_bytes(sha256(bytes(mutated)), "big")
        distances.append(bin(reference ^ flipped).count("1"))
    mean = sum(distances) / len(distances)
    assert 118 < mean < 138
    assert min(distances) > 85


# --- canonical encoding -----------------------------------------------------------

def test_canonical_bytes_layout_empty_payload():
    data = BlockData(device_id=0x0000DEADBEEF, seq=1, t_init=1000)
    expected = struct.pack(">HI", 0x0000, 0xDEADBEEF) + struct.pack(">QQI", 1, 1000, 0)
    got = data.encoded
    assert got == expected
    assert len(got) == 26


def test_canonical_bytes_layout_with_payload():
    data = BlockData(device_id=1, seq=2, t_init=3, payload=b"hi")
    got = data.encoded
    assert got[:6] == b"\x00\x00\x00\x00\x00\x01"
    assert got[6:14] == (2).to_bytes(8, "big")
    assert got[14:22] == (3).to_bytes(8, "big")
    assert got[22:26] == (2).to_bytes(4, "big")
    assert got[26:] == b"hi"


@given(
    st.integers(min_value=0, max_value=(1 << 48) - 1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.binary(max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_canonical_round_trip(device_id, seq, t_init, payload):
    # fixed-width fields and a length prefix give every field back, so no
    # two blocks share an encoding
    buf = BlockData(device_id=device_id, seq=seq, t_init=t_init, payload=payload).encoded
    assert int.from_bytes(buf[:6], "big") == device_id
    assert int.from_bytes(buf[6:14], "big") == seq
    assert int.from_bytes(buf[14:22], "big") == t_init
    assert int.from_bytes(buf[22:26], "big") == len(payload)
    assert buf[26:] == payload


def test_block_data_validation():
    with pytest.raises(ConfigError):
        BlockData(device_id=1 << 48, seq=0, t_init=0)
    with pytest.raises(ConfigError):
        BlockData(device_id=0, seq=-1, t_init=0)
    with pytest.raises(PayloadSizeError):
        BlockData(device_id=0, seq=0, t_init=0, payload=b"x" * (64 * 1024 + 1))


@pytest.mark.parametrize("field", ["device_id", "seq", "t_init"])
@pytest.mark.parametrize("flag", [False, True])
def test_block_data_rejects_a_bool_in_each_integer_field(field, flag):
    # a bool passes a range check as 0 or 1, so verify() would pass the chain in
    # memory while its saved line, with true or false in place of an integer, fails
    fields = dict(device_id=1, seq=0, t_init=0)
    BlockData(**fields)
    with pytest.raises(ConfigError, match=field):
        BlockData(**{**fields, field: flag})


# --- authentication tags ----------------------------------------------------------

def test_auth_tag_is_hash_of_canonical_and_packed_response():
    data = BlockData(device_id=5, seq=9, t_init=100, payload=b"p")
    expected = hashlib.sha256(data.encoded + R1.packed()).digest()
    assert make_auth_tag(data, R1).h == expected


def test_auth_tag_distinct_for_every_one_byte_payload():
    tags = {
        make_auth_tag(BlockData(0, 0, 0, bytes([v])), R1).h
        for v in range(256)
    }
    assert len(tags) == 256


def test_auth_tag_distinct_over_many_blocks():
    seen = set()
    for k in range(100_000):
        seen.add(make_auth_tag(BlockData(1, k, 0), R1).h)
    assert len(seen) == 100_000


def test_auth_tag_depends_on_response():
    data = BlockData(device_id=5, seq=9, t_init=100)
    assert make_auth_tag(data, R1) != make_auth_tag(data, R2)


def test_auth_tag_requires_128_bits():
    with pytest.raises(ValueError):
        make_auth_tag(BlockData(0, 0, 0), Response(np.zeros(8, dtype=np.uint8)))


def test_auth_tag_wrapper_rejects_wrong_width():
    with pytest.raises(ValueError):
        AuthTag(b"\x00" * 31)


# --- chain construction and verification -------------------------------------------

def test_genesis_links_to_zero_hash():
    chain = sample_chain(1)
    assert chain[0].prev_hash == GENESIS_PREV_HASH
    assert chain[0].height == 0


def test_entry_hash_recomputable():
    chain = sample_chain(3)
    e = chain[1]
    preimage = (
        e.height.to_bytes(8, "big")
        + e.prev_hash
        + e.data.encoded
        + e.auth_tag.h
        + e.trusted_node_id.to_bytes(6, "big")
        + e.t_validated.to_bytes(8, "big")
    )
    assert e.entry_hash == hashlib.sha256(preimage).digest()


def test_verify_accepts_well_formed_chains():
    assert verify([]) is None
    for n in (1, 2, 7):
        assert verify(sample_chain(n)) is None


def test_entries_link_by_hash():
    chain = sample_chain(4)
    for later, earlier in zip(chain[1:], chain[:-1]):
        assert later.prev_hash == earlier.entry_hash


@pytest.mark.parametrize("height", [0, 2, 4])
def test_verify_flags_payload_tampering_at_height(height):
    chain = sample_chain(5)
    e = chain[height]
    tampered_data = BlockData(e.data.device_id, e.data.seq, e.data.t_init, b"evil")
    chain[height] = ChainEntry(
        e.height, e.prev_hash, tampered_data, e.auth_tag,
        e.trusted_node_id, e.t_validated, e.entry_hash)
    assert verify(chain) == height


def test_verify_flags_broken_link():
    chain = sample_chain(4)
    e = chain[2]
    chain[2] = ChainEntry(
        e.height, b"\x01" * 32, e.data, e.auth_tag,
        e.trusted_node_id, e.t_validated, e.entry_hash)
    assert verify(chain) == 2


def test_verify_flags_recomputed_hash_rewrite():
    # an attacker who rewrites an entry and its hash still breaks the next link
    chain = sample_chain(4)
    e = chain[1]
    forged_data = BlockData(e.data.device_id, e.data.seq, e.data.t_init, b"forged")
    forged = make_entry(e.height, e.prev_hash, forged_data, e.auth_tag,
                        e.trusted_node_id, e.t_validated)
    chain[1] = forged
    assert verify(chain) == 2


def test_verify_flags_wrong_height_numbering():
    chain = sample_chain(3)
    e = chain[2]
    chain[2] = make_entry(5, e.prev_hash, e.data, e.auth_tag,
                          e.trusted_node_id, e.t_validated)
    assert verify(chain) == 2


def test_verify_flags_spliced_chains():
    a = sample_chain(4)
    rng = np.random.default_rng(123)
    b = []
    for k in range(4):
        data = BlockData(device_id=42, seq=k, t_init=k, payload=bytes(rng.bytes(3)))
        append(b, data, make_auth_tag(data, R2), 0xBB, k)
    spliced = a[:2] + b[2:]
    assert verify(spliced) == 2


def test_append_validates_trusted_fields():
    data = BlockData(device_id=1, seq=0, t_init=0)
    tag = make_auth_tag(data, R1)
    chain = []
    with pytest.raises(ConfigError):
        append(chain, data, tag, trusted_node_id=1 << 48, t_validated=0)
    with pytest.raises(ConfigError):
        append(chain, data, tag, trusted_node_id=1, t_validated=-5)
    assert chain == []


ENTRY_FIELDS = dict(height=0, prev_hash=bytes(32), data=BlockData(1, 0, 0),
                    auth_tag=AuthTag(bytes(32)), trusted_node_id=1, t_validated=0)


@pytest.mark.parametrize("field, bad", [
    ("height", -1), ("height", 2**64), ("height", True), ("height", 1.0),
    ("prev_hash", bytes(31)), ("prev_hash", "00" * 32), ("data", None), ("auth_tag", bytes(32)),
    ("trusted_node_id", 1 << 48), ("trusted_node_id", False), ("t_validated", -5),
    ("t_validated", 2**64), ("entry_hash", bytes(33)),
])
def test_chain_entry_rejects_each_malformed_field(field, bad):
    ChainEntry(**ENTRY_FIELDS)
    with pytest.raises(ConfigError, match=field):
        ChainEntry(**{**ENTRY_FIELDS, field: bad})


def test_append_extends_in_place_and_returns_the_new_entry():
    chain = sample_chain(2)
    data = BlockData(device_id=9, seq=0, t_init=3, payload=b"x")
    tag = make_auth_tag(data, R2)
    entry = append(chain, data, tag, trusted_node_id=0xBB, t_validated=4)
    assert len(chain) == 3 and chain[-1] is entry
    assert entry == make_entry(2, chain[1].entry_hash, data, tag, 0xBB, 4)
    assert verify(chain) is None


def test_make_entry_returns_the_memoized_entry_for_equal_fields():
    data = BlockData(device_id=7, seq=1, t_init=2, payload=b"memo")
    tag = make_auth_tag(data, R1)
    first = make_entry(0, bytes(32), data, tag, 0xCC, 9)
    # equal, but distinct, field objects
    again = make_entry(0, bytes(bytearray(32)), BlockData(7, 1, 2, b"memo"), AuthTag(tag.h),
                       0xCC, 9)
    assert again is first
    fresh = ChainEntry(0, bytes(32), data, tag, 0xCC, 9)
    assert again == fresh and again.entry_hash == fresh.entry_hash
    assert verify([again]) is None
    assert make_entry(1, bytes(32), data, tag, 0xCC, 9) != first


@pytest.mark.parametrize("position", [0, 4, 5])  # height, trusted_node_id, t_validated
def test_make_entry_memo_keeps_a_bool_or_float_field_invalid(position):
    fields = [0, bytes(32), BlockData(1, 0, 0), AuthTag(bytes(32)), 1, 0]
    fields[position] = 1
    make_entry(*fields)  # 1 == True == 1.0, so an untyped memo would return this entry
    for bad in (True, 1.0):
        fields[position] = bad
        with pytest.raises(ConfigError):
            make_entry(*fields)


@pytest.mark.parametrize("position, bad", [(1, bytearray(32)), (2, [1, 0, 0]), (3, {})])
def test_make_entry_refuses_an_unhashable_field_with_config_error(position, bad):
    fields = [0, bytes(32), BlockData(1, 0, 0), AuthTag(bytes(32)), 1, 0]
    fields[position] = bad
    with pytest.raises(ConfigError):
        make_entry(*fields)


def test_an_honest_run_builds_one_entry_object_per_block(tmp_path):
    """Every client replicates the trusted node's entry objects, and each
    chain file is still entry_to_json_line of each entry, one a line."""
    output = run_scenario(ScenarioConfig(out_dir=str(tmp_path)))
    trusted = output.built.scenario.world.registry.trusted_id
    chains = [node.chain for node in output.result.nodes.values()]
    assert len(chains) == 6 and len(output.result.nodes[trusted].chain) == 300
    assert len({id(entry) for chain in chains for entry in chain}) == 300
    for node_id, node in output.result.nodes.items():
        written = output.files[f"chain_{format_device_id(node_id)}"].read_text(encoding="ascii")
        assert written == "".join(entry_to_json_line(entry) + "\n" for entry in node.chain)


# --- persistence ---------------------------------------------------------------------

def test_entry_line_is_strict_json():
    chain = sample_chain(2)
    line = entry_to_json_line(chain[0])
    obj = json.loads(line)
    assert list(obj.keys()) == [
        "height", "prev_hash", "device_id", "seq", "t_init",
        "payload", "auth_tag", "trusted_node_id", "t_validated", "entry_hash",
    ]
    assert entry_from_json_line(line) == chain[0]


def test_entry_line_rejects_reordered_keys():
    line = entry_to_json_line(sample_chain(1)[0])
    obj = json.loads(line)
    reordered = json.dumps({k: obj[k] for k in reversed(list(obj))},
                           separators=(",", ":"))
    with pytest.raises(ValueError):
        entry_from_json_line(reordered)


def test_entry_line_rejects_uppercase_hex():
    line = entry_to_json_line(sample_chain(1)[0])
    obj = json.loads(line)
    obj["entry_hash"] = obj["entry_hash"].upper()
    with pytest.raises(ValueError):
        entry_from_json_line(json.dumps(obj, separators=(",", ":")))


def test_entry_line_rejects_float_and_bool_fields():
    line = entry_to_json_line(sample_chain(1)[0])
    obj = json.loads(line)
    for key, value in [("height", 0.0), ("seq", False),
                       ("device_id", 7), ("device_id", None),
                       ("trusted_node_id", 7), ("trusted_node_id", None)]:
        bad_line = json.dumps({**obj, key: value}, separators=(",", ":"))
        with pytest.raises(ValueError):
            entry_from_json_line(bad_line)


def test_entry_line_rejects_extra_whitespace():
    line = entry_to_json_line(sample_chain(1)[0])
    with pytest.raises(ValueError):
        entry_from_json_line(line.replace(":", ": ", 1))


def escape_first_char(value: str) -> str:
    """A JSON string literal respelled with its first character as a \\u escape."""
    return f'"\\u{ord(value[1]):04x}{value[2:]}'


# (line, key, respelling): json.loads reads each respelled value as the value
# written, so only the canonical re-serialization can catch it
NON_CANONICAL = [
    (1, "payload", escape_first_char),
    (2, "device_id", escape_first_char),
    (2, "entry_hash", escape_first_char),
    (0, "height", lambda value: "-" + value),
    (1, "seq", lambda value: value + "E0"),
]


@pytest.mark.parametrize("index, key, respell", NON_CANONICAL)
def test_non_canonical_spellings_of_the_same_value_fail_at_their_line(index, key, respell):
    lines = [entry_to_json_line(entry) for entry in sample_chain(3)]
    match = re.search(f'"{key}":("[^"]*"|[0-9]+)', lines[index])
    bad = lines[index][:match.start(1)] + respell(match.group(1)) + lines[index][match.end(1):]
    assert json.loads(bad)[key] == json.loads(lines[index])[key]
    with pytest.raises(ValueError):
        entry_from_json_line(bad)
    lines[index] = bad
    assert verify_chain_bytes("".join(line + "\n" for line in lines).encode("ascii")) == index


def test_chain_file_round_trip(tmp_path):
    chain = sample_chain(6)
    path = tmp_path / "chain.ndjson"
    save_chain(path, chain)
    loaded = [entry_from_json_line(line) for line in path.read_text(encoding="ascii").splitlines()]
    assert loaded == chain
    assert verify_chain_file(path) is None


def test_empty_chain_file_round_trip(tmp_path):
    path = tmp_path / "chain.ndjson"
    save_chain(path, [])
    assert path.read_bytes() == b""
    assert verify_chain_file(path) is None


def test_verify_chain_file_reports_the_line_that_does_not_parse(tmp_path):
    chain = sample_chain(3)
    path = tmp_path / "chain.ndjson"
    save_chain(path, chain)
    raw = path.read_bytes().split(b"\n")
    raw[1] = raw[1][:-2] + b"}}"
    path.write_bytes(b"\n".join(raw))
    assert verify_chain_file(path) == 1


def test_verify_chain_bytes_reports_a_bad_entry_below_an_unparsable_line(tmp_path, capsys):
    # entry 0 still parses but its hash no longer matches; line 2 does not parse
    lines = [entry_to_json_line(entry).encode() for entry in sample_chain(3)]
    at = lines[0].index(b'"payload":"') + len(b'"payload":"')
    digit = b"1" if lines[0][at:at + 1] == b"0" else b"0"
    lines[0] = lines[0][:at] + digit + lines[0][at + 1:]
    lines[2] = b"garbage"
    raw = b"\n".join(lines) + b"\n"
    assert verify_chain_bytes(raw) == 0
    path = tmp_path / "chain.ndjson"
    path.write_bytes(raw)
    assert main(["verify-chain", str(path)]) == 1
    assert capsys.readouterr().out == f"{path}: invalid at height 0\n"


def test_verify_chain_bytes_counts_deep_nesting_as_a_parse_failure(tmp_path, capsys):
    lines = [entry_to_json_line(entry).encode() for entry in sample_chain(3)]
    lines[1] = b"[" * 100_000 + b"]" * 100_000
    raw = b"\n".join(lines) + b"\n"
    assert verify_chain_bytes(raw) == 1
    path = tmp_path / "chain.ndjson"
    path.write_bytes(raw)
    assert main(["verify-chain", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"{path}: invalid at height 1\n"
    assert captured.err == ""


def test_verify_chain_bytes_spot_mutations(tmp_path):
    chain = sample_chain(4)
    path = tmp_path / "chain.ndjson"
    save_chain(path, chain)
    raw = path.read_bytes()
    assert verify_chain_bytes(raw) is None
    lines = raw.split(b"\n")
    offsets = [0]
    for segment in lines[:-1]:
        offsets.append(offsets[-1] + len(segment) + 1)
    for height in range(4):
        position = offsets[height] + len(lines[height]) // 2
        mutated = bytearray(raw)
        mutated[position] ^= 0x01
        assert verify_chain_bytes(bytes(mutated)) == height


def test_verify_chain_bytes_reports_non_string_device_id_at_its_height():
    lines = [json.loads(entry_to_json_line(entry)) for entry in sample_chain(3)]
    lines[2]["device_id"] = 12345
    lines[1]["trusted_node_id"] = None
    raw = b"".join(json.dumps(obj, separators=(",", ":")).encode() + b"\n" for obj in lines)
    assert verify_chain_bytes(raw) == 1


@pytest.mark.parametrize("bad", ["", "abc", "ABCDEF012345", "0123456789ag", "0" * 13,
                                 "0x00000000ab", "+0000000000a", "0000_000000a", " 0000000000a",
                                 "\uff1000000000001"])  # a fullwidth digit int() would take
def test_device_id_rejects_malformed(bad):
    # an id is exactly 12 lowercase hex digits, in either id field of a chain line
    for key in ("device_id", "trusted_node_id"):
        lines = [entry_to_json_line(entry) for entry in sample_chain(3)]
        lines[1], n = re.subn(f'"{key}":"[0-9a-f]{{12}}"', lambda m: f'"{key}":"{bad}"', lines[1])
        assert n == 1
        with pytest.raises(ValueError):
            entry_from_json_line(lines[1])
        assert verify_chain_bytes("".join(line + "\n" for line in lines).encode("utf-8")) == 1


def test_verify_chain_bytes_newline_mutation_reports_merged_line(tmp_path):
    chain = sample_chain(3)
    path = tmp_path / "chain.ndjson"
    save_chain(path, chain)
    raw = path.read_bytes()
    first_newline = raw.index(b"\n")
    mutated = bytearray(raw)
    mutated[first_newline] ^= 0x01
    assert verify_chain_bytes(bytes(mutated)) == 0
