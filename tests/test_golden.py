"""Golden artifacts: the exact bytes a scenario and a fom calibration write.

Each digest is the SHA-256 of one artifact file, recorded from a known-good
build. A change that is meant to keep behaviour must leave every digest
unchanged. A change that alters artifact bytes on purpose updates the
digests here and names the change in CHANGES.md.

Between them the five scenarios reach every verdict the simulator records
except `ignore` (which needs two trusted nodes): accepts at the trusted
node and at clients, structural rejects at clients, trusted-node
`no-match`, `replay` and `unknown-device`, client `no-match` followed by
`penalize` and `demote`, and rejects of blocks queued at a validator that
was demoted before it judged them (the drop scenario).
"""

import hashlib
import json

import pytest

from pufledger import ScenarioConfig, run_scenario
from pufledger.harness import run_fom_calibration

SMALL = dict(n_candidates=100, n_transactions=40, n_clients=3, n_fast_clients=1)

GOLDEN_SCENARIOS = {
    "forge-validator": (dict(adversary="forge-validator", adversary_events=3), {
        "chain_5ca2a75fd86b.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_d6c96bde225a.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_f2124f8c592d.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_f22904f78d4a.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "events.ndjson":
            "c8c225ccc5f7aeb31ae1128adf05c734a2e7992ade699e2c38d03b3c933a2895",
        "metrics.json":
            "11bca74f701958692460b60ac8f15a69fd0da7e05f6d46d8c7c84ce85e8ec7ea",
        "registry.ndjson":
            "1c6b3e11eedd7689d3336d43584e7ae101967ee8fbdb5de3c92327c7fb99f094",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "tamper": (dict(adversary="tamper", adversary_events=4), {
        "chain_5ca2a75fd86b.ndjson":
            "94757447d2b2e20df7a91e9b8e081de80957224864cd4750a23ae532cf33720f",
        "chain_d6c96bde225a.ndjson":
            "94757447d2b2e20df7a91e9b8e081de80957224864cd4750a23ae532cf33720f",
        "chain_f2124f8c592d.ndjson":
            "94757447d2b2e20df7a91e9b8e081de80957224864cd4750a23ae532cf33720f",
        "chain_f22904f78d4a.ndjson":
            "94757447d2b2e20df7a91e9b8e081de80957224864cd4750a23ae532cf33720f",
        "events.ndjson":
            "d3b6507fd17cb79f33d069247cedfed9daee4257f87b5857b4bbdc34abedf3f0",
        "metrics.json":
            "9ea5d420f0d5433a3798eb10ba99e84833198ca02ad06ff31d1f1e545f860c61",
        "registry.ndjson":
            "1c6b3e11eedd7689d3336d43584e7ae101967ee8fbdb5de3c92327c7fb99f094",
        "timings.csv":
            "9ae4d340d86e59a4ae19a2584b3645446310f97bfa44691e17dfcc024c02a573",
    }),
    "replay": (dict(adversary="replay", adversary_events=2), {
        "chain_5ca2a75fd86b.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_d6c96bde225a.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_f2124f8c592d.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_f22904f78d4a.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "events.ndjson":
            "bd9c88980fd2de0a5a556ee6787f3952e185a9697d2228ff426c635135355fff",
        "metrics.json":
            "eb1b0cb56a8bc7df23e156c8b8ed9ca92d5400bb477e55032286244a4f6f0e18",
        "registry.ndjson":
            "1c6b3e11eedd7689d3336d43584e7ae101967ee8fbdb5de3c92327c7fb99f094",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "fake-device": (dict(adversary="fake-device", adversary_events=2), {
        "chain_5ca2a75fd86b.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_d6c96bde225a.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_f2124f8c592d.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "chain_f22904f78d4a.ndjson":
            "5eee2a3560f02e51169646be3b816156bd69e7f49bcc21683e7a3bf469faac1b",
        "events.ndjson":
            "03e47ce30beb9bfd265c6f497f80d6d7ab798e1db438f890af720a2f49dccd8c",
        "metrics.json":
            "5092902f215c71e5cacb66f79566cc915942784c09bd1189760798777ceea949",
        "registry.ndjson":
            "1c6b3e11eedd7689d3336d43584e7ae101967ee8fbdb5de3c92327c7fb99f094",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "drop": (dict(drop_rate=0.05), {
        "chain_5ca2a75fd86b.ndjson":
            "c2fcc49fd80b1ed93e96132c480bf5ea8587f7ac3c44dc0fe1a7bcf71f08b060",
        "chain_d6c96bde225a.ndjson":
            "c2fcc49fd80b1ed93e96132c480bf5ea8587f7ac3c44dc0fe1a7bcf71f08b060",
        "chain_f2124f8c592d.ndjson":
            "6d5433aa092c41a9da19e05da2c75b54542da409e42fca69fb2dc590d4a6f303",
        "chain_f22904f78d4a.ndjson":
            "c2fcc49fd80b1ed93e96132c480bf5ea8587f7ac3c44dc0fe1a7bcf71f08b060",
        "events.ndjson":
            "8a8f83d19b976fa78d8dd95003701e2d06d35fed72a2023c0ceec6da1db706b9",
        "metrics.json":
            "9b5d62b70debfd22104bcd22ee60d334ef2fc63ab86277adca2e1287e7497b35",
        "registry.ndjson":
            "1c6b3e11eedd7689d3336d43584e7ae101967ee8fbdb5de3c92327c7fb99f094",
        "timings.csv":
            "81a4a0c256746021c30e6ac575c7a395f2681f8d3ea13986e286c43801ec53fb",
    }),
}

GOLDEN_FOM = (
    dict(fom_n_devices=3, fom_pool_size=60, fom_n_challenges=20, fom_n_reevals=5),
    "ad9b77585b4d6e0ba7c582d3591cea3f2157c2506c283d0f5bf0ac2afa7a9bb6",
)


def sha256_hex(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_scenario_artifacts_match_golden_digests(name, tmp_path):
    overrides, expected = GOLDEN_SCENARIOS[name]
    run_scenario(ScenarioConfig(**SMALL, **overrides, out_dir=str(tmp_path)))
    actual = {path.name: sha256_hex(path.read_bytes()) for path in tmp_path.iterdir()}
    assert actual == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_client_judgments_hash_once(name, tmp_path):
    """A client checks the one stored response the validator used, so every
    client accept or reject that spent validation work records one hash."""
    overrides, _ = GOLDEN_SCENARIOS[name]
    output = run_scenario(ScenarioConfig(**SMALL, **overrides), write_outputs=False)
    clients = {node_id for node_id, node in output.result.nodes.items()
               if node_id not in output.built.scenario.world.registry.trusted_node_ids}
    judged = [event.detail["hashes"] for event in output.result.events
              if event.kind in ("accept", "reject") and event.node in clients
              and "hashes" in event.detail]
    assert judged and set(judged) == {1}


def test_fom_report_matches_golden_digest():
    overrides, expected = GOLDEN_FOM
    doc = run_fom_calibration(ScenarioConfig(**overrides))
    assert sha256_hex(json.dumps(doc, indent=2).encode()) == expected
