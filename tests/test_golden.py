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
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_d6c96bde225a.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_f2124f8c592d.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_f22904f78d4a.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "events.ndjson":
            "a958224f67c3bd703714900f6cd44b2a2bf0de2011fff87ff60f3d1121a510d9",
        "metrics.json":
            "11bca74f701958692460b60ac8f15a69fd0da7e05f6d46d8c7c84ce85e8ec7ea",
        "registry.ndjson":
            "9140972062b319bab73cd43071b6f2a8e56d0b7d429d6365e02eb335fca1c808",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "tamper": (dict(adversary="tamper", adversary_events=4), {
        "chain_5ca2a75fd86b.ndjson":
            "bb2d1ac428eb216a6121edb86f1fc508160914ca4ca4640583891d6e00ee6491",
        "chain_d6c96bde225a.ndjson":
            "bb2d1ac428eb216a6121edb86f1fc508160914ca4ca4640583891d6e00ee6491",
        "chain_f2124f8c592d.ndjson":
            "bb2d1ac428eb216a6121edb86f1fc508160914ca4ca4640583891d6e00ee6491",
        "chain_f22904f78d4a.ndjson":
            "bb2d1ac428eb216a6121edb86f1fc508160914ca4ca4640583891d6e00ee6491",
        "events.ndjson":
            "3b34e474550545b4b6b08893685e50bba95856a581911aface4c48c041596fb3",
        "metrics.json":
            "9ea5d420f0d5433a3798eb10ba99e84833198ca02ad06ff31d1f1e545f860c61",
        "registry.ndjson":
            "9140972062b319bab73cd43071b6f2a8e56d0b7d429d6365e02eb335fca1c808",
        "timings.csv":
            "9ae4d340d86e59a4ae19a2584b3645446310f97bfa44691e17dfcc024c02a573",
    }),
    "replay": (dict(adversary="replay", adversary_events=2), {
        "chain_5ca2a75fd86b.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_d6c96bde225a.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_f2124f8c592d.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_f22904f78d4a.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "events.ndjson":
            "6841082a2eff20dfcf5c0f0b8bd5a26c142322dfd5190536af92a1679b466dbd",
        "metrics.json":
            "eb1b0cb56a8bc7df23e156c8b8ed9ca92d5400bb477e55032286244a4f6f0e18",
        "registry.ndjson":
            "9140972062b319bab73cd43071b6f2a8e56d0b7d429d6365e02eb335fca1c808",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "fake-device": (dict(adversary="fake-device", adversary_events=2), {
        "chain_5ca2a75fd86b.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_d6c96bde225a.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_f2124f8c592d.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "chain_f22904f78d4a.ndjson":
            "efd20208a35384f50c29f8af3d25e36b343f9801d8127f6b1432e10970a2d799",
        "events.ndjson":
            "9b406d2f5e7a12fe32e0e9985ac31878fc957f00be33d5d433ded805f693e712",
        "metrics.json":
            "5092902f215c71e5cacb66f79566cc915942784c09bd1189760798777ceea949",
        "registry.ndjson":
            "9140972062b319bab73cd43071b6f2a8e56d0b7d429d6365e02eb335fca1c808",
        "timings.csv":
            "dd780e4e932d52ea35a642f21fc5dac7aaf5098e40cad38fcf05209380f90c7f",
    }),
    "drop": (dict(drop_rate=0.05), {
        "chain_5ca2a75fd86b.ndjson":
            "1452a97c26bdae42bf6beb10079fee336f8baef852fc152211734746aec91103",
        "chain_d6c96bde225a.ndjson":
            "1452a97c26bdae42bf6beb10079fee336f8baef852fc152211734746aec91103",
        "chain_f2124f8c592d.ndjson":
            "8f6e8fe91c0a9958d647d78a93a8bdfe9f2fc5e3b53566aef97c5699b93e2f0b",
        "chain_f22904f78d4a.ndjson":
            "1452a97c26bdae42bf6beb10079fee336f8baef852fc152211734746aec91103",
        "events.ndjson":
            "e3da5881a9ba273a1b162a6bf7fd6860692035deacd80fefe99aabe2a7d32ea9",
        "metrics.json":
            "9b5d62b70debfd22104bcd22ee60d334ef2fc63ab86277adca2e1287e7497b35",
        "registry.ndjson":
            "9140972062b319bab73cd43071b6f2a8e56d0b7d429d6365e02eb335fca1c808",
        "timings.csv":
            "81a4a0c256746021c30e6ac575c7a395f2681f8d3ea13986e286c43801ec53fb",
    }),
}

GOLDEN_FOM = (
    dict(fom_n_devices=3, fom_pool_size=60, fom_n_challenges=20, fom_n_reevals=5),
    "bda90cd5db7d15761d0b12f061924d151e43414bc91238be0941c72438cfb247",
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
    output = run_scenario(ScenarioConfig(**SMALL, **overrides, out_dir=str(tmp_path)))
    clients = {node_id for node_id, node in output.result.nodes.items()
               if node_id != output.built.scenario.world.registry.trusted_id}
    judged = [event.detail["hashes"] for event in output.result.events
              if event.kind in ("accept", "reject") and event.node in clients
              and "hashes" in event.detail]
    assert judged and set(judged) == {1}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_trusted_judgments_hash_at_most_once(name, tmp_path):
    """The trusted node recomputes one tag, at the index the block names;
    an unknown device tries none. A scan would record up to every stored
    response."""
    overrides, _ = GOLDEN_SCENARIOS[name]
    output = run_scenario(ScenarioConfig(**SMALL, **overrides, out_dir=str(tmp_path)))
    trusted = output.built.scenario.world.registry.trusted_id
    judged = [event.detail["hashes"] for event in output.result.events
              if event.kind in ("accept", "reject") and event.node == trusted
              and "hashes" in event.detail]
    assert judged and set(judged) <= {0, 1}


# the golden worlds, and one whose jitter reorders deliveries
LAYOUT_WORLDS = {**{name: overrides for name, (overrides, _) in GOLDEN_SCENARIOS.items()},
                 "jitter": dict(latency_jitter_ms=150)}


@pytest.mark.parametrize("name", sorted(LAYOUT_WORLDS))
def test_every_event_fills_its_layout(name, tmp_path):
    """Each logged value has its slot's type, and the detail view holds the
    layout's keys in order with the logged values."""
    output = run_scenario(ScenarioConfig(**SMALL, **LAYOUT_WORLDS[name], out_dir=str(tmp_path)))
    for event in output.result.events:
        assert tuple(map(type, event.values)) == event.layout.types
        assert tuple(event.detail.items()) == tuple(zip(event.layout.keys, event.values))


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


def test_golden_scenarios_reach_every_listed_verdict(tmp_path):
    reached = Counter()
    for overrides, _ in GOLDEN_SCENARIOS.values():
        reached += verdict_counts(run_scenario(ScenarioConfig(**SMALL, **overrides,
                                                              out_dir=str(tmp_path))))
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
