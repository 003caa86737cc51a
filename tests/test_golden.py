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
            "5e854f6098b17945f4a442c729c0db8085fbd5ce1e67cdfa05e3120c7a27659b",
        "metrics.json":
            "f0d2de7133975c9bd3feb40f00a46069230cf72523be3824844fec5b69acb869",
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
            "b27415a1002c80405ebed9e08fdf6a30e6a6f49f0c351e946317fb9afff827a9",
        "metrics.json":
            "1f33d019b2b28ece34ffce74053796e9b871036a7f7cd8b760968175badb6db2",
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
            "b02304e1d65a7e44d701b7b8a003e6915eecfe2b2fddb787f5b18b5301636346",
        "metrics.json":
            "ac0f8c5fca76da4e1c9f68547e78b0c7d3925fccd8807d465d301a1b6ebd195c",
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
            "bc265726c91b8b183e29230dd19bde42360db35eef7d50cda921c17e0db10aea",
        "metrics.json":
            "cb3530d01a5ffa03e79fc27c07bf619910191a56e3675eea0fdb11f985ea8bdd",
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
            "91e9d14618e3c89c993b89eb5baadfac4582a3c9bb4da0518419e026f53276fe",
        "metrics.json":
            "5ccaf3bc74f34903f427ca32076e8a6d0f9d4ab0f78825ed8c394810ff5cff42",
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


def test_fom_report_matches_golden_digest():
    overrides, expected = GOLDEN_FOM
    doc = run_fom_calibration(ScenarioConfig(**overrides))
    assert sha256_hex(json.dumps(doc, indent=2).encode()) == expected
