import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufledger.harness import (
    _BOUNDS,
    _STREAM_PAYLOAD,
    CSV_HEADER,
    _draw_payloads,
    MetricsReport,
    _stats,
    build_metrics,
    build_world,
    load_config,
    metrics_json,
    parse_config_text,
    run_benchmark,
    run_fom_calibration,
    timings_csv_lines,
)
from pufledger.errors import ConfigError
from pufledger import ScenarioConfig, run_scenario
from pufledger.ledger import verify_chain_file
from pufledger.cli import main
from pufledger.consensus import ROLE_CLIENT, ROLE_TRUSTED
from pufledger import netsim
from pufledger.netsim import ClientOutcome, SimResult, TxRecord
from pufledger.puf import format_device_id

from oracles import metrics_row


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        seed=11,
        n_transactions=10,
        n_clients=3,
        n_fast_clients=1,
        n_candidates=60,
        tx_spacing_ms=120,
        payload_bytes=24,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# --- config parsing ---------------------------------------------------------------

def test_empty_config_text_gives_defaults():
    assert parse_config_text("") == ScenarioConfig()


def test_config_text_parses_types_and_comments():
    cfg = parse_config_text(
        "# full line comment\n"
        "\n"
        "seed = 7\n"
        "drop_rate = 0.25   # trailing comment\n"
        "adversary = replay\n"
        "adversary_events=2\n"
    )
    assert cfg.seed == 7
    assert cfg.drop_rate == 0.25
    assert cfg.adversary == "replay"
    assert cfg.adversary_events == 2
    # untouched keys keep their defaults
    assert cfg.n_transactions == ScenarioConfig().n_transactions


@pytest.mark.parametrize("text,fragment", [
    ("mystery_knob = 3", "unknown config key"),
    ("seed", "expected key=value"),
    ("seed = banana", "bad value"),
    ("n_clients = 0", "n_clients"),
    ("n_clients = 2\nn_fast_clients = 5", "n_fast_clients"),
    ("adversary = gremlin", "adversary"),
    ("adversary = tamper", "adversary_events"),
    ("payload_bytes = 999999", "payload_bytes"),
    ("demotion_threshold = -1", "demotion_threshold"),
    ("bench_trials = 0", "bench_trials"),
    ("puf_response_bits = 64", "puf_response_bits"),
    ("puf_noise_sigma_mhz = nan", "puf_noise_sigma_mhz"),
    ("cost_trusted_mean_ms = nan", "cost_trusted_mean_ms"),
    ("cost_client_slow_sd_ms = inf", "cost_client_slow_sd_ms"),
    ("puf_freq_sigma_mhz = nan", "puf_freq_sigma_mhz"),
    ("fom_n_devices = 1", "fom_n_devices"),
    ("fom_n_reevals = 1", "fom_n_reevals"),
    ("fom_n_reevals = 16777217", "fom_n_reevals"),
    ("fom_n_challenges = 0", "fom_n_challenges"),
    ("pow_difficulty_bits = 33", "pow_difficulty_bits"),
    ("fom_pool_size = -1", "fom_pool_size"),
    ("drop_rate = 1.5", "drop_rate"),
    ("drop_rate = 1.0", "drop_rate"),
    ("latency_base_ms = -1", "latency_base_ms"),
    ("cost_trusted_mean_ms = -1", "cost_trusted_mean_ms"),
    ("adversary = tamper\nadversary_events = 1\nn_transactions = 0", "n_transactions"),
    ("adversary = replay\nadversary_events = 1\nn_transactions = 0", "n_transactions"),
    ("seed = 1\nseed = 2", "line 2: duplicate config key 'seed'"),
    # simulated times must stay inside the ledger's 64-bit time fields
    ("latency_jitter_ms = 10000000000000000000", "latency_jitter_ms"),
    ("latency_base_ms = 100000000000000000000", "latency_base_ms"),
    ("cost_trusted_mean_ms = 1e300", "cost_trusted_mean_ms"),
    ("cost_init_sd_ms = 2147483648.5", "cost_init_sd_ms"),
    ("tx_spacing_ms = 2147483649", "tx_spacing_ms"),
    ("n_transactions = 16777217", "n_transactions"),
    ("adversary = replay\nadversary_events = 100000000000000000000", "adversary_events"),
])
def test_bad_config_text_is_rejected(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


NUMERIC_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type in ("int", "float")]


@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_minus_one_is_rejected_for_every_numeric_field(name):
    """Keeps the bounds table complete: a new numeric field fails here until
    its range is checked when a config is built. PufConfig and
    ScreeningPolicy check seed, puf_* and the rest of screen_* under their
    own field names."""
    with pytest.raises(ConfigError, match=name if name in _BOUNDS else None):
        ScenarioConfig(**{name: -1})


WRONG_TYPES = ([(f.name, value) for f in fields(ScenarioConfig) if f.type == "int"
                for value in (1.5, True)]
               + [(f.name, True) for f in fields(ScenarioConfig) if f.type == "float"]
               + [("adversary", 1)])


@pytest.mark.parametrize("name,value", WRONG_TYPES)
def test_a_value_of_another_type_is_rejected_when_a_config_is_built(name, value):
    """seed=True would run seed 1, latency_jitter_ms=2.5 the jitter of 2, and
    n_transactions=2.5 would enroll every device and then fail inside numpy."""
    with pytest.raises(ConfigError, match=rf"^{name} must be \w+, got"):
        ScenarioConfig(**{name: value})


def test_an_int_is_taken_for_a_float_field():
    assert ScenarioConfig(drop_rate=0, puf_freq_mean_mhz=250) == ScenarioConfig()


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=99\nn_transactions=5\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 99
    assert cfg.n_transactions == 5


def test_config_file_that_is_not_utf8_is_rejected(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("seed = 7  # r\xe9glage\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(path)
    assert main(["scenario", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


# --- world construction ------------------------------------------------------------

def test_build_world_shape():
    cfg = small_config()
    built = build_world(cfg)
    assert len(built.node_ids) == 1 + cfg.n_clients
    assert len(set(built.node_ids)) == len(built.node_ids)

    nodes = built.scenario.world.nodes
    assert nodes[0].role == ROLE_TRUSTED
    assert all(node.role == ROLE_CLIENT for node in nodes[1:])
    assert [node.node_id for node in nodes] == list(built.node_ids)
    assert list(built.sim_config.costs) == list(built.node_ids)

    for node in built.scenario.world.nodes:
        assert node.device.device_id == node.node_id
        assert node.challenges is built.records[node.node_id].challenges
    assert built.scenario.world.registry.trusted_id == built.node_ids[0]

    # one fast client then slow ones: handle cost means differ
    handle_means = [built.sim_config.costs[node_id].handle_mean_ms
                    for node_id in built.node_ids[1:]]
    assert handle_means[0] == cfg.cost_client_fast_mean_ms
    assert set(handle_means[1:]) == {cfg.cost_client_slow_mean_ms}


@pytest.mark.parametrize("overrides,wraps", [
    ({"n_transactions": 8}, False),
    # 10 candidates leave each node at most 10 enrolled challenges, and each
    # client initiates 11 transactions, so every client wraps
    ({"n_transactions": 33, "n_candidates": 10}, True),
], ids=["default", "wrap"])
def test_build_world_schedules_round_robin(overrides, wraps):
    cfg = small_config(**overrides)
    n_tx = cfg.n_transactions
    built = build_world(cfg)
    inits = built.scenario.initiations
    assert [i.t_ms for i in inits] == [(k + 1) * cfg.tx_spacing_ms for k in range(n_tx)]
    clients = built.node_ids[1:]
    assert [i.node_id for i in inits] == [clients[k % len(clients)] for k in range(n_tx)]
    assert all(len(i.payload) == cfg.payload_bytes for i in inits)
    # challenge indices rotate within each client's enrolled list
    for node_id in clients:
        n_enrolled = len(built.records[node_id].responses)
        own = [i.challenge_index for i in inits if i.node_id == node_id]
        assert own == [k % n_enrolled for k in range(len(own))]
        assert (len(own) > n_enrolled) == wraps


@pytest.mark.parametrize("n_transactions", [0, 1, 7])
@pytest.mark.parametrize("payload_bytes", [0, 1, 3, 4, 5, 64])
def test_payloads_are_the_bytes_of_one_rng_bytes_call_per_transaction(payload_bytes,
                                                                       n_transactions):
    # rng.bytes(n) draws ceil(n / 4) 32-bit words, and one for n = 0, so the one
    # draw must end where the loop does for every length, not only multiples of 4
    seed = [7, _STREAM_PAYLOAD]
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    payloads = _draw_payloads(rng, n_transactions, payload_bytes)
    assert payloads == [loop_rng.bytes(payload_bytes) for _ in range(n_transactions)]
    assert all(type(payload) is bytes for payload in payloads)
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    # and build_world schedules exactly those payloads, in transaction order
    cfg = small_config(seed=7, n_transactions=n_transactions, payload_bytes=payload_bytes)
    assert [i.payload for i in build_world(cfg).scenario.initiations] == payloads


def test_build_world_zero_threshold_disables_demotion():
    built = build_world(small_config(demotion_threshold=0))
    assert built.sim_config.demotion_threshold == 0


def test_config_adversary_is_scheduled_after_traffic():
    cfg = small_config(adversary="fake-device", adversary_events=3)
    built = build_world(cfg)
    (adv,) = built.scenario.adversaries
    assert adv.kind == "fake-device"
    last_tx = max(i.t_ms for i in built.scenario.initiations)
    assert len(adv.schedule) == 3
    assert min(adv.schedule) > last_tx


# --- scenario runs ------------------------------------------------------------------

def test_run_scenario_writes_consistent_artifacts(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "run"))
    output = run_scenario(cfg)

    report = output.report
    assert report.n_transactions == cfg.n_transactions
    assert report.accepted + sum(report.rejected_by_reason.values()) == cfg.n_transactions
    assert report.accepted == cfg.n_transactions  # clean network, everything lands

    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(
        [f"chain_{nid:012x}.ndjson" for nid in built_ids(output)]
        + ["registry.ndjson", "events.ndjson", "metrics.json", "timings.csv"]
    )

    chain_paths = [output.files[f"chain_{nid:012x}"] for nid in built_ids(output)]
    assert all(verify_chain_file(path) is None for path in chain_paths)
    raws = {path.read_bytes() for path in chain_paths}
    assert len(raws) == 1  # every replica wrote the same bytes

    header = json.loads(output.files["registry"].read_text(encoding="ascii").splitlines()[0])
    trusted = output.built.scenario.world.registry.trusted_id
    assert header == {"trusted_node_ids": [f"{trusted:012x}"]}

    metrics = json.loads(output.files["metrics"].read_text())
    assert metrics["accepted"] == report.accepted
    assert metrics["dt_tx_ms"]["n"] > 0

    csv_lines = output.files["timings"].read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 1 + cfg.n_transactions


def built_ids(output):
    return output.built.node_ids


def test_csv_rows_match_metrics_timestamps(tmp_path):
    output = run_scenario(small_config(out_dir=str(tmp_path)))
    rows = timings_csv_lines(output.report)[1:]
    entries = json.loads(output.files["metrics"].read_text())["transactions"]
    assert len(rows) == len(entries) == 10
    for row, entry in zip(rows, entries):
        tx, seq, device_id, dt_sa, dt_ca, dt_tx, result, reason = row.split(",")
        assert int(tx) == entry["tx"]
        assert int(seq) == entry["seq"]
        assert device_id == entry["device_id"]
        assert result == "accepted" and reason == ""
        assert int(dt_sa) == entry["t_validated"] - entry["t_recv_trusted"]
        last_done = max(c["t_done"] for c in entry["clients"].values())
        last = [c for c in entry["clients"].values() if c["t_done"] == last_done][0]
        assert int(dt_ca) == last["t_done"] - last["t_recv"]
        assert int(dt_tx) == last["t_done"] - entry["t_init"]


def test_csv_row_takes_the_first_client_in_order_on_a_t_done_tie():
    record = TxRecord(tx_id=0, origin=1, device_id=1, seq=0, t_init=0, t_send=5,
                      t_recv_trusted=10, t_validated=130, accepted=True, client_outcomes={
                          2: ClientOutcome(t_recv=145, t_done=190, accepted=True, reason=None),
                          3: ClientOutcome(t_recv=140, t_done=200, accepted=True, reason=None),
                          4: ClientOutcome(t_recv=150, t_done=200, accepted=True, reason=None),
                          5: ClientOutcome(t_recv=160, t_done=260, accepted=False,
                                           reason="no-match"),
                      })
    report = build_metrics(SimResult(events=(), nodes={}, tx_records=(record,),
                                     adversarial=()), nodes=())
    # client 3 and client 4 both finish last at 200; client 3 comes first
    assert timings_csv_lines(report)[1:] == [f"0,0,{format_device_id(1)},120,60,200,accepted,"]


def test_csv_row_of_a_partially_replicated_block_reports_its_last_accepting_client():
    """In a lossy world transaction 5 is accepted by 4 of its 5 clients, and
    the one that rejects it finishes last: the row shows the last to accept."""
    cfg = ScenarioConfig(seed=42, n_transactions=40, n_candidates=200, drop_rate=0.05)
    built = build_world(cfg)
    report = build_metrics(netsim.run(built.sim_config, built.scenario),
                           built.scenario.world.nodes)
    clients = report.transactions[5].client_outcomes.values()
    assert sorted(c.accepted for c in clients) == [False] + [True] * 4
    assert not max(clients, key=lambda c: c.t_done).accepted
    last = max((c for c in clients if c.accepted), key=lambda c: c.t_done)
    assert (last.t_recv, last.t_done) == (1631, 1684)  # t_init 1500
    assert timings_csv_lines(report)[1 + 5] == "5,1,f22904f78d4a,115,53,184,accepted,"


# any value json.dumps and metrics_json both write, in any field _scalar
# spells; the text has quotes, control characters and non-ASCII
SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
NODE_ID = st.integers(0, 2**48 - 1)
OUTCOME = st.builds(ClientOutcome, t_recv=SCALAR, t_done=SCALAR, accepted=SCALAR, reason=SCALAR)
RECORD = st.builds(
    TxRecord, tx_id=SCALAR, origin=NODE_ID, device_id=NODE_ID, seq=SCALAR, t_init=SCALAR,
    t_send=SCALAR, t_recv_trusted=SCALAR, t_validated=SCALAR,
    accepted=st.one_of(st.none(), st.booleans()), reason=SCALAR,
    client_outcomes=st.dictionaries(NODE_ID, OUTCOME, max_size=4))
STATS = st.fixed_dictionaries({"mean": st.floats(), "sd": st.floats(), "n": st.integers()})
REPORT = st.builds(
    MetricsReport, n_transactions=st.integers(), n_adversarial=st.integers(),
    accepted=st.integers(), rejected_by_reason=st.dictionaries(st.text(), st.integers()),
    adversarial_accepted=st.integers(),
    adversarial_rejected_by_reason=st.dictionaries(st.text(), st.integers()),
    dt_sa_ms=STATS, dt_ca_ms=STATS, dt_tx_ms=STATS,
    per_node=st.dictionaries(st.text(), st.fixed_dictionaries({"role": st.text()},
                                                             optional={"dt_ca_ms": STATS})),
    transactions=st.lists(RECORD, max_size=4).map(tuple))


@settings(max_examples=300, deadline=None)
@given(REPORT)
def test_metrics_json_is_json_dumps_of_the_report(report):
    rows = [metrics_row(record) for record in report.transactions]
    assert metrics_json(report) == json.dumps({**vars(report), "transactions": rows}, indent=1)


def test_the_report_holds_the_runs_own_records(tmp_path):
    output = run_scenario(small_config(out_dir=str(tmp_path)))
    assert output.report.transactions is output.result.tx_records


def report_of_one_transaction():
    record = TxRecord(tx_id=0, origin=1, device_id=1, seq=0, t_init=0, t_send=5,
                      t_recv_trusted=10, t_validated=130, accepted=True, client_outcomes={
                          2: ClientOutcome(t_recv=145, t_done=190, accepted=True, reason=None)})
    return build_metrics(SimResult(events=(), nodes={}, tx_records=(record,),
                                   adversarial=()), nodes=())


@pytest.mark.parametrize("value", [np.int64(7), 7.0])
@pytest.mark.parametrize("client", [False, True])
def test_metrics_json_refuses_a_numpy_int_or_a_float(value, client):
    # json.dumps refuses the numpy scalar; metrics_json refuses both
    report = report_of_one_transaction()
    record = report.transactions[0]
    (record.client_outcomes[2] if client else record).reason = value
    with pytest.raises(TypeError):
        metrics_json(report)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**62, 2**62), max_size=40).flatmap(
    lambda values: st.tuples(st.just(values), st.permutations(values))))
def test_stats_is_the_same_for_every_order_of_its_values(values_and_permutation):
    # build_metrics pools the per-client lists client by client, not in the
    # order the transactions ran; the metrics bytes rely on this
    values, permuted = values_and_permutation
    assert _stats(permuted) == _stats(values)


def test_run_scenario_is_reproducible(tmp_path):
    cfg_a = small_config(out_dir=str(tmp_path / "a"))
    cfg_b = small_config(out_dir=str(tmp_path / "b"))
    out_a = run_scenario(cfg_a)
    out_b = run_scenario(cfg_b)
    for name in out_a.files:
        assert out_a.files[name].read_bytes() == out_b.files[name].read_bytes(), name


def test_run_scenario_with_drops_accounts_for_every_transaction(tmp_path):
    cfg = small_config(n_transactions=30, drop_rate=0.5, out_dir=str(tmp_path))
    report = run_scenario(cfg).report
    assert report.rejected_by_reason.get("lost", 0) > 0
    assert report.accepted + sum(report.rejected_by_reason.values()) == 30
    # lost rows leave the timing columns blank
    lost_rows = [line for line in timings_csv_lines(report)[1:] if ",lost," in line]
    assert lost_rows and all(row.split(",")[3:6] == ["", "", ""] for row in lost_rows)


def test_run_scenario_tamper_adversary_end_to_end(tmp_path):
    cfg = small_config(adversary="tamper", adversary_events=2, out_dir=str(tmp_path))
    output = run_scenario(cfg)
    report = output.report
    assert report.adversarial_accepted == 0
    assert report.n_adversarial > 0
    # the two tampered origin broadcasts swallowed transactions 0 and 1
    assert report.rejected_by_reason.get("lost") == 2
    assert report.accepted == cfg.n_transactions - 2


# --- figures of merit ----------------------------------------------------------------

def test_run_fom_calibration_structure():
    cfg = small_config(fom_n_devices=3, fom_pool_size=60, fom_n_challenges=20,
                       fom_n_reevals=5)
    doc = run_fom_calibration(cfg)
    assert set(doc) == {"population", "per_device", "screening"}
    assert len(doc["per_device"]) == 3
    assert doc["screening"]["pool_size"] == 60
    assert len(doc["screening"]["accepted_by_device"]) == 3
    pop = doc["population"]
    assert 30.0 < pop["uniqueness_pct"] < 70.0
    assert pop["reliability_pct"] < 10.0
    assert 30.0 < pop["randomness_pct"] < 70.0
    assert 0.0 <= pop["correlation_abs_mean"] <= 1.0


def test_run_fom_calibration_needs_two_devices():
    with pytest.raises(ConfigError):
        run_fom_calibration(small_config(fom_n_devices=1))


# --- benchmark ----------------------------------------------------------------------

def test_run_benchmark_reports_medians():
    cfg = small_config(bench_trials=5, pow_difficulty_bits=4, n_candidates=40)
    doc = run_benchmark(cfg)
    assert doc["n_trials"] == 5
    assert doc["pow_difficulty_bits"] == 4
    assert doc["stored_responses"] > 0
    assert doc["auth_median_ms"] > 0.0
    assert doc["pow_median_ms"] > 0.0
    assert doc["pop_pow_ratio"] == pytest.approx(
        doc["auth_median_ms"] / doc["pow_median_ms"])


# --- command line --------------------------------------------------------------------

def write_cfg(tmp_path, **keys) -> str:
    lines = [f"{k}={v}" for k, v in keys.items()]
    path = tmp_path / "cli.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


CLI_KEYS = dict(seed=11, n_transactions=6, n_clients=2, n_fast_clients=1,
                n_candidates=50, tx_spacing_ms=100, payload_bytes=16)


def test_cli_scenario_runs_and_writes(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, **CLI_KEYS)
    out_dir = tmp_path / "cli-out"
    assert main(["scenario", "--config", cfg_path, "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "6 tx, 6 accepted" in stdout
    assert (out_dir / "metrics.json").exists()
    chain_files = sorted(out_dir.glob("chain_*.ndjson"))
    assert len(chain_files) == 3

    assert main(["verify-chain", str(chain_files[0])]) == 0
    assert capsys.readouterr().out.strip().endswith("ok")

    raw = bytearray(chain_files[0].read_bytes())
    raw[5] ^= 0x01
    chain_files[0].write_bytes(bytes(raw))
    assert main(["verify-chain", str(chain_files[0])]) == 1
    assert "invalid at height 0" in capsys.readouterr().out


def test_cli_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery_knob=1\n", encoding="utf-8")
    assert main(["scenario", "--config", str(path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scenario", "fom"])
@pytest.mark.parametrize("keys", [
    dict(fom_pool_size=-1), dict(drop_rate=1.5), dict(latency_base_ms=-1),
    dict(cost_trusted_mean_ms=-1), dict(adversary="tamper", adversary_events=1, n_transactions=0),
    dict(latency_jitter_ms=10**19), dict(latency_base_ms=10**20), dict(cost_trusted_mean_ms=1e300),
    dict(adversary="replay", adversary_events=10**20),
    # only 2**48 device ids exist to draw node ids from
    dict(n_clients=2**48), dict(fom_n_devices=2**48),
    # arrays of more than 2**47 bytes, which no allocator can grant
    dict(puf_n_oscillators=10**15),
    # counts of work, each capped at 2**24
    dict(n_candidates=2**24 + 1), dict(fom_pool_size=2**24 + 1), dict(bench_trials=2**24 + 1),
    dict(screen_n_reevals=2**24 + 1), dict(screen_n_reevals=10**15),
    dict(fom_n_reevals=2**24 + 1), dict(fom_n_reevals=2**62),
    # a nearly noiseless device passes every read, so each in-band candidate reads them all
    dict(screen_n_reevals=10**15, puf_noise_sigma_mhz=0.0001, n_candidates=1, n_clients=1,
         n_fast_clients=0, n_transactions=0),
])
def test_cli_out_of_range_config_exits_2(tmp_path, capsys, monkeypatch, command, keys):
    monkeypatch.chdir(tmp_path)  # nothing may be written, not even to ./out
    assert main([command, "--config", write_cfg(tmp_path, **keys)]) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cli.cfg"]


def test_cli_fom_with_impossible_read_count_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, fom_n_devices=2, fom_pool_size=40, fom_n_reevals=10**15)
    assert main(["fom", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_chain_exits_2(tmp_path, capsys):
    assert main(["verify-chain", str(tmp_path / "nope.ndjson")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify-chain", "{dir}"],
                                  ["scenario", "--config", "{dir}"]])
def test_cli_directory_path_exits_2(tmp_path, capsys, argv):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_fom_report_to_file(tmp_path):
    cfg_path = write_cfg(tmp_path, seed=5, fom_n_devices=2, fom_pool_size=40,
                         fom_n_challenges=10, fom_n_reevals=5)
    report_path = tmp_path / "fom.json"
    assert main(["fom", "--config", cfg_path, "--out", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert "population" in doc and len(doc["per_device"]) == 2


def test_cli_bench_report_to_stdout(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, seed=5, bench_trials=3, pow_difficulty_bits=4,
                         n_candidates=40)
    assert main(["bench", "--config", cfg_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_trials"] == 3 and doc["pop_pow_ratio"] > 0


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_seed_override_changes_artifacts(tmp_path):
    cfg_path = write_cfg(tmp_path, **CLI_KEYS)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["scenario", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["scenario", "--config", cfg_path, "--out", str(out_b),
                 "--seed", "12"]) == 0
    a = (out_a / "events.ndjson").read_bytes()
    b = (out_b / "events.ndjson").read_bytes()
    assert a != b
