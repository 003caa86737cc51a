"""Golden artifacts: the exact bytes a scenario and a fom calibration write.

Each digest is the SHA-256 of one artifact file, recorded from a known-good
build. A change that is meant to keep behaviour must leave every digest
unchanged. A change that alters artifact bytes on purpose updates the
digests here and names the change in CHANGES.md.

Between them the five scenarios reach every verdict the simulator
records: accepts at the trusted node and at clients, structural rejects at clients, trusted-node
`no-match`, `replay` and `unknown-device`, client `no-match` followed by
`penalize` and `demote`, and rejects at the demoted validator of the blocks
that reach it after its demotion (the drop scenario).
test_golden_scenarios_reach_every_listed_verdict counts them, so a
re-recorded digest cannot hide a lost verdict.

`PYTHONPATH=src python tests/test_golden.py` prints the current digests in
the layout of GOLDEN_SCENARIOS and GOLDEN_FOM below, for re-recording.
"""

import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from pufledger import ScenarioConfig, run_scenario
from pufledger.harness import run_fom_calibration

SMALL = dict(n_candidates=100, n_transactions=40, n_clients=3, n_fast_clients=1)

GOLDEN_SCENARIOS = {
    "forge-validator": (dict(adversary="forge-validator", adversary_events=3), {
        "chain_5ca2a75fd86b.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_d6c96bde225a.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_f2124f8c592d.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_f22904f78d4a.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "events.ndjson":
            "a5f99502fdd39aef39cbd379e1655000cbf4e6177e0f029a91ae38c770b37e93",
        "metrics.json":
            "11bca74f701958692460b60ac8f15a69fd0da7e05f6d46d8c7c84ce85e8ec7ea",
        "registry.ndjson":
            "866343e086bcac23ab5c4b592584b0dd913e68adc4434de4a476747b87b6217b",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "tamper": (dict(adversary="tamper", adversary_events=4), {
        "chain_5ca2a75fd86b.ndjson":
            "e8b3f284635e809569fd11aa0f03e41b45bc27194786b10ce1fccd88d72105e8",
        "chain_d6c96bde225a.ndjson":
            "e8b3f284635e809569fd11aa0f03e41b45bc27194786b10ce1fccd88d72105e8",
        "chain_f2124f8c592d.ndjson":
            "e8b3f284635e809569fd11aa0f03e41b45bc27194786b10ce1fccd88d72105e8",
        "chain_f22904f78d4a.ndjson":
            "e8b3f284635e809569fd11aa0f03e41b45bc27194786b10ce1fccd88d72105e8",
        "events.ndjson":
            "33962363d24bc683e434ba350e606c2aa1436e4192b6d19f0e836c0312b4c64a",
        "metrics.json":
            "9ea5d420f0d5433a3798eb10ba99e84833198ca02ad06ff31d1f1e545f860c61",
        "registry.ndjson":
            "866343e086bcac23ab5c4b592584b0dd913e68adc4434de4a476747b87b6217b",
        "timings.csv":
            "9ae4d340d86e59a4ae19a2584b3645446310f97bfa44691e17dfcc024c02a573",
    }),
    "replay": (dict(adversary="replay", adversary_events=2), {
        "chain_5ca2a75fd86b.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_d6c96bde225a.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_f2124f8c592d.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_f22904f78d4a.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "events.ndjson":
            "27748cb4c220da95e35633702cea00241732ecac471f025015c2011a6a6314df",
        "metrics.json":
            "eb1b0cb56a8bc7df23e156c8b8ed9ca92d5400bb477e55032286244a4f6f0e18",
        "registry.ndjson":
            "866343e086bcac23ab5c4b592584b0dd913e68adc4434de4a476747b87b6217b",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "fake-device": (dict(adversary="fake-device", adversary_events=2), {
        "chain_5ca2a75fd86b.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_d6c96bde225a.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_f2124f8c592d.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "chain_f22904f78d4a.ndjson":
            "8cb18cb2bc36b537f71d44164fdeb78584dcf0445e5955af79488d3d7c129957",
        "events.ndjson":
            "9ab98ad6afabb2fddf3d6a135586aee1200a4825cac9dbeaba5b6bf24b849da5",
        "metrics.json":
            "5092902f215c71e5cacb66f79566cc915942784c09bd1189760798777ceea949",
        "registry.ndjson":
            "866343e086bcac23ab5c4b592584b0dd913e68adc4434de4a476747b87b6217b",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "drop": (dict(drop_rate=0.05), {
        "chain_5ca2a75fd86b.ndjson":
            "1e4ab1252bbeee7fd8145f4a5ecd8c25bbbac24a20fe905c5f46ebdcbb9548d3",
        "chain_d6c96bde225a.ndjson":
            "1e4ab1252bbeee7fd8145f4a5ecd8c25bbbac24a20fe905c5f46ebdcbb9548d3",
        "chain_f2124f8c592d.ndjson":
            "5433d577f21ac7f0dbba5884d313501ffea22fa3fac3365c4973f918cc861bdd",
        "chain_f22904f78d4a.ndjson":
            "1e4ab1252bbeee7fd8145f4a5ecd8c25bbbac24a20fe905c5f46ebdcbb9548d3",
        "events.ndjson":
            "74e90b993156480ad5afc0122ea4730ceeb0e76e62a5194bc846ed714b818a35",
        "metrics.json":
            "9b5d62b70debfd22104bcd22ee60d334ef2fc63ab86277adca2e1287e7497b35",
        "registry.ndjson":
            "866343e086bcac23ab5c4b592584b0dd913e68adc4434de4a476747b87b6217b",
        "timings.csv":
            "81a4a0c256746021c30e6ac575c7a395f2681f8d3ea13986e286c43801ec53fb",
    }),
}

GOLDEN_FOM = (
    dict(fom_n_devices=3, fom_pool_size=60, fom_n_challenges=20, fom_n_reevals=5),
    "bcffd0566442b569b79f5004a3107aab6d78894c968c86b9c067c1e13d416a41",
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
               if node_id != output.built.scenario.world.registry.trusted_id}
    judged = [event.detail["hashes"] for event in output.result.events
              if event.kind in ("accept", "reject") and event.node in clients
              and "hashes" in event.detail]
    assert judged and set(judged) == {1}


def test_fom_report_matches_golden_digest():
    overrides, expected = GOLDEN_FOM
    doc = run_fom_calibration(ScenarioConfig(**overrides))
    assert sha256_hex(json.dumps(doc, indent=2).encode()) == expected


# the verdicts the module docstring lists, as verdict_counts names them
LISTED_VERDICTS = {
    "accept at trusted", "accept at client", "structural reject at client",
    "no-match at trusted", "replay at trusted", "unknown-device at trusted",
    "no-match at client", "penalize after client no-match", "demote after penalize",
    "reject at demoted validator",
}


def verdict_counts(output) -> Counter:
    """Count a run's verdicts by kind, where they landed and what came before."""
    trusted = output.built.scenario.world.registry.trusted_id
    events = output.result.events
    demoted_at = {e.node: e.t_ms for e in events if e.kind == "demote"}
    counts = Counter()
    for prev, e in zip((None,) + events[:-1], events):
        if e.kind == "accept":
            counts[f"accept at {e.detail['role']}"] += 1
        elif e.kind == "reject" and e.node in demoted_at and e.t_ms >= demoted_at[e.node]:
            counts["reject at demoted validator"] += 1
        elif e.kind == "reject" and e.node == trusted:
            counts[f"{e.detail['reason']} at trusted"] += 1
        elif e.kind == "reject":
            # a client spends validation work, and records its hashes, only on validated blocks
            counts[f"{e.detail['reason']} at client" if "hashes" in e.detail
                   else "structural reject at client"] += 1
        elif e.kind == "penalize":
            after = (prev.kind == "reject" and prev.node != trusted
                     and prev.detail["reason"] == "no-match")
            counts["penalize after client no-match" if after else "penalize"] += 1
        elif e.kind == "demote":
            counts["demote after penalize" if prev.kind == "penalize" else "demote"] += 1
    return counts


def test_golden_scenarios_reach_every_listed_verdict():
    reached = Counter()
    for overrides, _ in GOLDEN_SCENARIOS.values():
        reached += verdict_counts(run_scenario(ScenarioConfig(**SMALL, **overrides),
                                               write_outputs=False))
    assert set(reached) == LISTED_VERDICTS


def _spell(overrides: dict) -> str:
    return "dict(" + ", ".join(f"{key}={json.dumps(value)}" for key, value in overrides.items()) + ")"


def print_golden_digests() -> None:
    """Print GOLDEN_SCENARIOS and GOLDEN_FOM as recorded from the current build."""
    print("GOLDEN_SCENARIOS = {")
    for name, (overrides, _) in GOLDEN_SCENARIOS.items():
        with tempfile.TemporaryDirectory() as out_dir:
            run_scenario(ScenarioConfig(**SMALL, **overrides, out_dir=out_dir))
            digests = {path.name: sha256_hex(path.read_bytes())
                       for path in sorted(Path(out_dir).iterdir())}
        print(f'    "{name}": ({_spell(overrides)}, {{')
        for file_name, digest in digests.items():
            print(f'        "{file_name}":\n            "{digest}",')
        print("    }),")
    print("}")
    overrides, _ = GOLDEN_FOM
    doc = run_fom_calibration(ScenarioConfig(**overrides))
    print(f"\nGOLDEN_FOM = (\n    {_spell(overrides)},\n"
          f'    "{sha256_hex(json.dumps(doc, indent=2).encode())}",\n)')


if __name__ == "__main__":
    print_golden_digests()
