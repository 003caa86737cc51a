"""End-to-end acceptance checks.

Each test measures one shipped guarantee at its stated tolerance and prints
one `criterion N: PASS/FAIL - detail` line (run pytest with -s to see the
lines for passing tests). The tests are self-contained and deterministic;
only the wall-clock benchmark figures vary between machines.
"""

import copy
import time
from dataclasses import replace

import numpy as np
import pytest

from pufledger.ledger import (
    BlockData,
    append,
    make_auth_tag,
    save_chain,
    verify_chain_bytes,
)
from pufledger.puf import (
    RESPONSE_BITS,
    PufConfig,
    Response,
    challenge_chunks,
    manufacture,
    random_challenge,
    reference_response,
)
from pufledger.registry import Registry, enroll
from pufledger import ScenarioConfig, run_scenario
from pufledger.fom import ScreeningPolicy, screen_pool, uniqueness
from pufledger.harness import run_benchmark, timings_csv_lines
from pufledger.consensus import (
    REASON_NO_MATCH,
    REASON_NOT_FROM_TRUSTED,
    REASON_REPLAY,
    REASON_UNKNOWN_DEVICE,
    ROLE_CLIENT,
)
from pufledger import consensus, fom
from pufledger.netsim import event_to_json_line
from oracles import wire_to_json


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _device_population(n_devices: int):
    cfg = PufConfig()
    return cfg, [manufacture(cfg, 0x100000 + i, i) for i in range(n_devices)]


def _screen_pool_against(device, cfg, pool_size=500, seed=42):
    """Draw a shared candidate pool and keep the challenges this device
    passes, with their noiseless references."""
    pool_rng = np.random.default_rng([seed, 20])
    screen_rng = np.random.default_rng([seed, 21])
    screened = []
    for chunk in challenge_chunks(cfg.bank_size, RESPONSE_BITS, pool_size, pool_rng):
        kept, refs = screen_pool(device, chunk, ScreeningPolicy(), screen_rng)
        screened += zip(chunk[kept], map(Response, refs))
    return screened


def test_c01_uniqueness_across_population():
    started = time.perf_counter()
    cfg, devices = _device_population(20)
    screened = _screen_pool_against(devices[0], cfg)[:100]
    assert len(screened) == 100
    challenges = [challenge for challenge, _ in screened]
    matrix = np.array([[reference_response(device, challenge).bits for challenge in challenges]
                       for device in devices])
    value = uniqueness(matrix)
    elapsed = time.perf_counter() - started
    ok = 47.0 <= value <= 53.0 and elapsed < 10.0
    _report(1, ok, f"mean inter-device distance {value:.3f}% over 20 devices x 100 "
                   f"challenges (bounds [47, 53]), {elapsed:.2f}s (< 10s)")


def test_c02_reliability_at_calibrated_and_zero_noise():
    started = time.perf_counter()
    cfg, devices = _device_population(1)
    device = devices[0]
    screened = _screen_pool_against(device, cfg)
    challenges = [challenge for challenge, _ in screened]
    rel_rng = np.random.default_rng([42, 22])
    noisy = float(np.mean([
        fom.reliability(device, challenge, 11, rel_rng)
        for challenge in challenges
    ]))

    quiet_device = manufacture(
        PufConfig(noise_sigma_mhz=0.0), device.device_id, 0)
    quiet = max(
        fom.reliability(quiet_device, challenge, 11, rel_rng)
        for challenge in challenges
    )
    elapsed = time.perf_counter() - started
    ok = 1.0 <= noisy <= 5.0 and quiet == 0.0 and elapsed < 10.0
    _report(2, ok, f"intra-device distance {noisy:.3f}% at calibrated noise "
                   f"(bounds [1, 5]) and exactly {quiet}% at zero noise, "
                   f"{elapsed:.2f}s (< 10s)")


def test_c03_randomness_of_screened_responses():
    cfg, devices = _device_population(1)
    screened = _screen_pool_against(devices[0], cfg)
    value = float(np.mean([fom.randomness(reference.bits) for _, reference in screened]))
    ok = 45.0 <= value <= 55.0
    _report(3, ok, f"mean one-bit fraction {value:.3f}% over {len(screened)} "
                   f"screened responses (bounds [45, 55])")


def test_c04_screening_yield_at_defaults():
    device = manufacture(PufConfig(), 0xABCDEF012345, 0)
    record = enroll(Registry(device.device_id), device, 500, ScreeningPolicy(), 42)
    n_accepted = len(record.responses)
    ok = 90 <= n_accepted <= 170
    _report(4, ok, f"{n_accepted} of 500 candidate challenges accepted (bounds [90, 170])")


def test_c05_protocol_completeness(tmp_path):
    started = time.perf_counter()
    output = run_scenario(ScenarioConfig(out_dir=str(tmp_path)))
    elapsed = time.perf_counter() - started
    report = output.report
    chain_raws = [output.files[name].read_bytes()
                  for name in output.files if name.startswith("chain_")]
    all_identical = len(set(chain_raws)) == 1
    all_valid = all(verify_chain_bytes(raw) is None for raw in chain_raws)
    ok = (report.accepted == 300 and report.rejected_by_reason == {}
          and len(chain_raws) == 6 and all_identical and all_valid
          and elapsed < 30.0)
    _report(5, ok, f"{report.accepted}/300 accepted, {len(chain_raws)} chain files "
                   f"byte-identical={all_identical} valid={all_valid}, "
                   f"{elapsed:.2f}s (< 30s)")


def test_c06_protocol_soundness(tmp_path):
    runs = {
        "tamper": ScenarioConfig(seed=101, n_transactions=700, n_candidates=150,
                                 tx_spacing_ms=150, adversary="tamper",
                                 adversary_events=700),
        "replay": ScenarioConfig(seed=102, n_transactions=30, n_candidates=150,
                                 tx_spacing_ms=150, adversary="replay",
                                 adversary_events=2100),
        "fake-device": ScenarioConfig(seed=103, n_transactions=5, n_candidates=150,
                                      adversary="fake-device", adversary_events=2100),
        "forge-validator": ScenarioConfig(seed=104, n_transactions=5, n_candidates=150,
                                          adversary="forge-validator",
                                          adversary_events=1000),
    }
    total = 0
    false_accepts = 0
    wrong_reasons = []
    for kind, cfg in runs.items():
        output = run_scenario(replace(cfg, out_dir=str(tmp_path / kind)))
        outcomes = output.result.adversarial
        trusted_id = output.built.scenario.world.registry.trusted_id
        total += len(outcomes)
        false_accepts += sum(outcome.accepted for outcome in outcomes)
        for position, outcome in enumerate(outcomes):
            if kind == "tamper":
                expected = (REASON_NO_MATCH if outcome.receiver == trusted_id
                            else REASON_NOT_FROM_TRUSTED)
            elif kind == "replay":
                expected = REASON_REPLAY
            elif kind == "fake-device":
                expected = REASON_UNKNOWN_DEVICE
            else:
                # the first volley is checked bit by bit and misses; the
                # resulting demotion makes every later volley structurally
                # alien
                expected = REASON_NO_MATCH if position < 5 else REASON_NOT_FROM_TRUSTED
            if outcome.reason != expected:
                wrong_reasons.append((kind, position, outcome.reason, expected))
    ok = total >= 10_000 and false_accepts == 0 and not wrong_reasons
    _report(6, ok, f"{total} adversarial messages (>= 10000), {false_accepts} false "
                   f"accepts, {len(wrong_reasons)} wrong reason codes")


def test_c07_tamper_evidence_is_exhaustive(tmp_path):
    cfg = PufConfig()
    device = manufacture(cfg, 0x300000, 3)
    rng = np.random.default_rng(77)
    chain = []
    for height in range(10):
        challenge = random_challenge(cfg.bank_size, RESPONSE_BITS, 1, rng)[0]
        response = reference_response(device, challenge)
        data = BlockData(device_id=device.device_id, seq=height,
                         t_init=1000 + height, payload=bytes(rng.bytes(16)))
        append(chain, data, make_auth_tag(data, response),
               trusted_node_id=0x300001, t_validated=2000 + height)
    path = tmp_path / "chain.ndjson"
    save_chain(path, chain)
    raw = path.read_bytes()
    assert verify_chain_bytes(raw) is None

    missed = []
    newline_count = 0
    for position in range(len(raw)):
        mutated = raw[:position] + bytes([raw[position] ^ 0x01]) + raw[position + 1:]
        failed_at = verify_chain_bytes(mutated)
        if failed_at != newline_count:
            missed.append((position, failed_at))
        if raw[position] == 0x0A:
            newline_count += 1
    ok = not missed
    _report(7, ok, f"all {len(raw)} single-byte mutations of a 10-entry chain file "
                   f"detected at the mutated height ({len(missed)} missed)")


@pytest.mark.slow
def test_c08_no_enrolled_response_leaks_onto_the_wire(tmp_path):
    cfg = ScenarioConfig(n_transactions=10_000, n_candidates=150, out_dir=str(tmp_path))
    output = run_scenario(cfg)
    events_text = "\n".join(event_to_json_line(event) for event in output.result.events)

    built = output.built
    nodes = {node.node_id: copy.deepcopy(node) for node in built.scenario.world.nodes}
    trusted_id, *peers = built.node_ids
    registry = built.scenario.world.registry
    wire_lines = []
    for init in built.scenario.initiations:
        block = consensus.initiate(nodes[init.node_id], init.payload,
                                   init.challenge_index, now=init.t_ms)
        wire_lines.append(wire_to_json(block))
        result = consensus.judge(nodes[trusted_id], block, registry, peers, now=init.t_ms)
        assert result.accepted
        wire_lines += [wire_to_json(rebroadcast) for _, rebroadcast in result.rebroadcast]
    wire_text = "\n".join(wire_lines)

    secrets = [response
               for record in built.records.values()
               for response in record.responses]
    leaks = 0
    for text in (events_text, wire_text):
        data = text.encode("ascii")
        for response in secrets:
            if response.packed() in data or response.hex() in text:
                leaks += 1
    ok = leaks == 0 and len(wire_lines) == 10_000 * (1 + len(peers))
    _report(8, ok, f"{len(secrets)} enrolled responses, {leaks} leaked into "
                   f"{len(wire_text) + len(events_text)} bytes of wire blocks and "
                   f"event logs across 10000 transactions")


@pytest.mark.slow
def test_c09_authentication_beats_proof_of_work():
    doc = run_benchmark(ScenarioConfig())
    ratio = doc["pop_pow_ratio"]
    ok = ratio is not None and ratio <= 0.01
    _report(9, ok, f"median authenticate {doc['auth_median_ms']:.3f} ms vs "
                   f"proof-of-work {doc['pow_median_ms']:.1f} ms at difficulty "
                   f"{doc['pow_difficulty_bits']} over {doc['n_trials']} trials, "
                   f"ratio {ratio:.5f} (<= 0.01)")


def test_c10_timing_identities_hold_exactly(tmp_path):
    output = run_scenario(ScenarioConfig(out_dir=str(tmp_path)))
    report = output.report
    assert report.accepted == 300

    # recompute every published delta from the raw simulated timestamps
    identity_errors = 0
    dt_tx_values = []
    dt_sa_values = []
    for record in report.transactions:
        dt_sa_values.append(record.t_validated - record.t_recv_trusted)
        for outcome in record.client_outcomes.values():
            dt_tx_values.append(outcome.t_done - record.t_init)

    rows = timings_csv_lines(report)[1:]
    for row, record in zip(rows, report.transactions):
        _, _, _, dt_sa, dt_ca, dt_tx, _, _ = row.split(",")
        if int(dt_sa) != record.t_validated - record.t_recv_trusted:
            identity_errors += 1
        last_done = max(c.t_done for c in record.client_outcomes.values())
        last = next(c for c in record.client_outcomes.values() if c.t_done == last_done)
        if int(dt_ca) != last.t_done - last.t_recv:
            identity_errors += 1
        if int(dt_tx) != last.t_done - record.t_init:
            identity_errors += 1

    mean_dt_tx = float(np.mean(dt_tx_values))
    exact = (identity_errors == 0
             and mean_dt_tx == report.dt_tx_ms["mean"]
             and float(np.mean(dt_sa_values)) == report.dt_sa_ms["mean"])
    in_band = 198.0 * 0.8 <= mean_dt_tx <= 198.0 * 1.2
    ok = exact and in_band
    _report(10, ok, f"timing identities exact over {len(rows)} transactions "
                    f"({identity_errors} violations), mean dt_tx {mean_dt_tx:.3f} ms "
                    f"within 198 ms +/- 20% [{198 * 0.8:.1f}, {198 * 1.2:.1f}]")


def test_c11_identical_configs_give_identical_artifacts(tmp_path):
    base_configs = [
        ScenarioConfig(n_transactions=120),
        ScenarioConfig(seed=7, n_transactions=60, n_candidates=150, drop_rate=0.15,
                       adversary="forge-validator", adversary_events=12),
    ]
    compared = 0
    mismatches = []
    for index, base in enumerate(base_configs):
        outputs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"scenario{index}-{attempt}"
            cfg = replace(base, out_dir=str(out_dir))
            outputs.append(run_scenario(cfg))
        first, second = outputs
        assert set(first.files) == set(second.files)
        for name in first.files:
            compared += 1
            if first.files[name].read_bytes() != second.files[name].read_bytes():
                mismatches.append((index, name))
    ok = not mismatches and compared >= 20
    _report(11, ok, f"{compared} artifact files (chains, registries, event logs, "
                    f"metrics, timings) byte-identical across repeated runs of 2 "
                    f"scenarios; mismatches: {mismatches or 'none'}")
