"""Scenario harness: builds worlds, runs them, measures them.

Everything here is driven by one flat ScenarioConfig whose field names are
exactly the keys accepted in a config file (one `key=value` per line, `#`
comments). A scenario derives every random draw from the single seed
through named substreams, so identical configs produce byte-identical
chains, registries, event logs and metrics; metrics_json writes the report
at the bytes of json.dumps(indent=1), its transactions from templates.

The default cost model mirrors a small hardware testbed: one fast
validator board around 120 ms per block add, two mid clients around 46.5
ms and three slow clients around 72.3 ms, plus a few ms to sign and
broadcast. With the default latency model the mean end-to-end transaction
time lands near 198 ms.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's own string escape
from pathlib import Path

import numpy as np

from . import consensus, fom, ledger, netsim, registry as registry_mod
from .consensus import ROLE_CLIENT, ROLE_TRUSTED, NodeState
from .errors import ConfigError, ScenarioError
from .fom import ScreeningPolicy
from .ledger import BlockData
from .netsim import (
    Adversary,
    CostModel,
    Initiation,
    LatencyModel,
    Scenario,
    SimConfig,
    SimResult,
    World,
    inject,
)
from .puf import (
    CHUNK_ROWS,
    DEVICE_ID_BITS,
    RESPONSE_BITS,
    PufConfig,
    arbiter_bits,
    challenge_chunks,
    format_device_id,
    manufacture,
    selected_freqs,
    selector_dtype,
)
from .registry import Registry, enroll

# named substreams of the scenario seed
_STREAM_DEVICE_IDS = 10
_STREAM_ENROLL = 11
_STREAM_PAYLOAD = 12
_STREAM_FOM_POOL = 20
_STREAM_FOM_SCREEN = 21
_STREAM_FOM_RELIABILITY = 22

_ADVERSARY_CHOICES = ("none",) + netsim.ADVERSARY_KINDS

# keep simulated times inside the ledger's 64-bit fields: 2**25 jobs per node,
# each at most 41 * 2**31 ms (40 sd above the mean), end below 2**62 ms; node
# counts stay far below the 2**48 device ids that _draw_node_ids draws from,
# and candidate, pool, read and trial counts cannot ask for unbounded work
_MAX_MS = 2**31
_MAX_COUNT = 2**24

# the types a field of each type takes, the first parsing config text; a bool is not an int
_TYPES = {"int": (int,), "float": (float, int), "str": (str,)}

# inclusive (low, high) of each range-checked ScenarioConfig field; seed,
# puf_* and the rest of screen_* are checked by PufConfig and ScreeningPolicy
_BOUNDS: dict[str, tuple[float, float]] = {
    "n_transactions": (0, _MAX_COUNT),
    "n_clients": (1, _MAX_COUNT),
    "n_fast_clients": (0, math.inf),  # and at most n_clients
    "n_candidates": (1, _MAX_COUNT),
    "screen_n_reevals": (1, _MAX_COUNT),
    "tx_spacing_ms": (1, _MAX_MS),
    "payload_bytes": (0, ledger.MAX_PAYLOAD_BYTES),
    "drop_rate": (0.0, math.nextafter(1.0, 0.0)),  # [0, 1)
    "latency_base_ms": (0, _MAX_MS),
    "latency_jitter_ms": (0, _MAX_MS),
    "demotion_threshold": (0, math.inf),
    "adversary_events": (0, _MAX_COUNT),
    "pow_difficulty_bits": (0, 32),
    "bench_trials": (1, _MAX_COUNT),
    "fom_n_devices": (2, _MAX_COUNT),
    "fom_n_challenges": (1, math.inf),
    "fom_pool_size": (1, _MAX_COUNT),
    "fom_n_reevals": (2, _MAX_COUNT),
    "cost_trusted_mean_ms": (0.0, _MAX_MS),
    "cost_trusted_sd_ms": (0.0, _MAX_MS),
    "cost_client_fast_mean_ms": (0.0, _MAX_MS),
    "cost_client_fast_sd_ms": (0.0, _MAX_MS),
    "cost_client_slow_mean_ms": (0.0, _MAX_MS),
    "cost_client_slow_sd_ms": (0.0, _MAX_MS),
    "cost_init_mean_ms": (0.0, _MAX_MS),
    "cost_init_sd_ms": (0.0, _MAX_MS),
}

CSV_HEADER = "tx,seq,device_id,dt_sa_ms,dt_ca_ms,dt_tx_ms,result,reason"


@dataclass(frozen=True)
class ScenarioConfig:
    """One flat bag of knobs; field names double as config file keys."""

    seed: int = 42
    n_transactions: int = 300
    n_clients: int = 5
    n_fast_clients: int = 2
    n_candidates: int = 500
    tx_spacing_ms: int = 250
    payload_bytes: int = 64
    drop_rate: float = 0.0
    latency_base_ms: int = 4
    latency_jitter_ms: int = 2
    demotion_threshold: int = 3  # 0 disables demotion
    adversary: str = "none"
    adversary_events: int = 0
    pow_difficulty_bits: int = 20
    bench_trials: int = 100
    puf_n_oscillators: int = 512
    puf_freq_mean_mhz: float = 250.0
    puf_freq_sigma_mhz: float = 5.0
    puf_noise_sigma_mhz: float = 0.245
    screen_randomness_low_pct: float = 45.0
    screen_randomness_high_pct: float = 55.0
    screen_max_unreliable_bits: int = 3
    screen_n_reevals: int = 11
    fom_n_devices: int = 6
    fom_n_challenges: int = 100
    fom_pool_size: int = 500
    fom_n_reevals: int = 11
    cost_trusted_mean_ms: float = 120.03
    cost_trusted_sd_ms: float = 3.44
    cost_client_fast_mean_ms: float = 46.5
    cost_client_fast_sd_ms: float = 2.66
    cost_client_slow_mean_ms: float = 72.27
    cost_client_slow_sd_ms: float = 18.07
    cost_init_mean_ms: float = 6.0
    cost_init_sd_ms: float = 1.0
    out_dir: str = "out"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) not in _TYPES[f.type]:
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.name in _BOUNDS:
                low, high = _BOUNDS[f.name]
                if not low <= value <= high:
                    raise ConfigError(f"{f.name} must be in [{low}, {high}], got {value}")
        if self.n_fast_clients > self.n_clients:
            raise ConfigError("n_fast_clients must be in [0, n_clients]")
        if self.adversary not in _ADVERSARY_CHOICES:
            raise ConfigError(f"adversary must be one of {_ADVERSARY_CHOICES}")
        if self.adversary != "none" and self.adversary_events < 1:
            raise ConfigError("adversary_events must be >= 1 when an adversary is set")
        if self.adversary in ("tamper", "replay") and self.n_transactions == 0:
            raise ConfigError(f"a {self.adversary} adversary needs n_transactions >= 1")
        self.puf_config()
        self.screening_policy()

    def puf_config(self) -> PufConfig:
        return PufConfig(
            n_oscillators=self.puf_n_oscillators,
            freq_mean_mhz=self.puf_freq_mean_mhz,
            freq_sigma_mhz=self.puf_freq_sigma_mhz,
            noise_sigma_mhz=self.puf_noise_sigma_mhz,
            rng_seed=self.seed,
        )

    def screening_policy(self) -> ScreeningPolicy:
        return ScreeningPolicy(
            randomness_band=(self.screen_randomness_low_pct, self.screen_randomness_high_pct),
            max_unreliable_bits=self.screen_max_unreliable_bits,
            n_screen_reevals=self.screen_n_reevals,
        )


_FIELD_TYPES = {f.name: _TYPES[f.type][0] for f in fields(ScenarioConfig)}


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse `key=value` lines into a ScenarioConfig; unknown keys are errors."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return ScenarioConfig(**values)


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_config_text(text)


# --- world construction -----------------------------------------------------

@dataclass(frozen=True)
class BuiltWorld:
    sim_config: SimConfig
    scenario: Scenario
    node_ids: tuple[int, ...]  # trusted first, then clients in world order
    records: dict[int, registry_mod.CrpRecord]


def _draw_node_ids(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, _STREAM_DEVICE_IDS])
    ids: dict[int, None] = {}  # insertion-ordered; a repeated draw changes nothing
    while len(ids) < count:
        ids[int(rng.integers(0, 1 << DEVICE_ID_BITS))] = None
    return list(ids)


def _draw_payloads(rng: np.random.Generator, count: int, size: int) -> list[bytes]:
    """count payloads of size bytes in one draw: the bytes, and the generator
    state, of count calls of rng.bytes(size), which draws max(1, ceil(size / 4))
    32-bit words a call, 0 bytes included, and writes them little-endian."""
    words = max(1, -(-size // 4))
    blob = rng.integers(0, 1 << 32, (count, words), dtype=np.uint32).astype("<u4").tobytes()
    return [blob[start:start + size] for start in range(0, count * 4 * words, 4 * words)]


def build_world(cfg: ScenarioConfig) -> BuiltWorld:
    """Manufacture, enroll and wire up the nodes described by the config.

    Derivations from the seed: node ids from substream 10; enrollment
    randomness from substream 11 (one child seed per node, in node order);
    transaction payloads from substream 12. Device seeds are node indices.
    """
    puf_config = cfg.puf_config()
    policy = cfg.screening_policy()
    n_nodes = 1 + cfg.n_clients
    node_ids = _draw_node_ids(cfg.seed, n_nodes)
    trusted_id = node_ids[0]

    devices = [manufacture(puf_config, node_ids[i], i) for i in range(n_nodes)]
    reg = Registry(trusted_id)
    enroll_rng = np.random.default_rng([cfg.seed, _STREAM_ENROLL])
    records = {}
    for device in devices:
        enroll_seed = int(enroll_rng.integers(0, 1 << 63))
        records[device.device_id] = enroll(reg, device, cfg.n_candidates, policy, enroll_seed)

    trusted_cost = CostModel(cfg.cost_init_mean_ms, cfg.cost_init_sd_ms,
                             cfg.cost_trusted_mean_ms, cfg.cost_trusted_sd_ms)
    fast_cost = CostModel(cfg.cost_init_mean_ms, cfg.cost_init_sd_ms,
                          cfg.cost_client_fast_mean_ms, cfg.cost_client_fast_sd_ms)
    slow_cost = CostModel(cfg.cost_init_mean_ms, cfg.cost_init_sd_ms,
                          cfg.cost_client_slow_mean_ms, cfg.cost_client_slow_sd_ms)
    costs = {trusted_id: trusted_cost}
    for i in range(cfg.n_clients):
        costs[node_ids[1 + i]] = fast_cost if i < cfg.n_fast_clients else slow_cost
    nodes = [NodeState(node_id, ROLE_CLIENT if i else ROLE_TRUSTED, device,
                       records[node_id].challenges, records[node_id].responses)
             for i, (node_id, device) in enumerate(zip(node_ids, devices))]

    sim_config = SimConfig(
        seed=cfg.seed,
        latency=LatencyModel(cfg.latency_base_ms, cfg.latency_jitter_ms),
        drop_rate=cfg.drop_rate,
        costs=costs,
        demotion_threshold=cfg.demotion_threshold,
    )

    payloads = _draw_payloads(np.random.default_rng([cfg.seed, _STREAM_PAYLOAD]),
                             cfg.n_transactions, cfg.payload_bytes)
    initiations = []
    for tx, payload in enumerate(payloads):
        node_id = node_ids[1 + tx % cfg.n_clients]
        initiations.append(Initiation(
            t_ms=(tx + 1) * cfg.tx_spacing_ms,
            node_id=node_id,
            payload=payload,
            challenge_index=tx // cfg.n_clients % len(records[node_id].responses),
        ))

    scenario = Scenario(
        world=World(nodes=tuple(nodes), registry=reg),
        initiations=tuple(initiations),
    )
    scenario = _apply_config_adversary(cfg, scenario)
    return BuiltWorld(sim_config, scenario, tuple(node_ids), records)


def _apply_config_adversary(cfg: ScenarioConfig, scenario: Scenario) -> Scenario:
    if cfg.adversary == "none":
        return scenario
    n_tx = len(scenario.initiations)
    times = tuple((n_tx + 1 + k) * cfg.tx_spacing_ms for k in range(cfg.adversary_events))
    if cfg.adversary == "tamper":
        tx_ids = list(range(min(cfg.adversary_events, n_tx)))
        return inject(Adversary("tamper", {"tx_ids": tx_ids, "field": "payload"}), scenario)
    target = {"tx_id": 0} if cfg.adversary == "replay" else {}
    return inject(Adversary(cfg.adversary, target, times), scenario)


# --- metrics ----------------------------------------------------------------

@dataclass
class MetricsReport:
    """Everything measured in one scenario run, serializable as one JSON doc."""

    n_transactions: int
    n_adversarial: int
    accepted: int
    rejected_by_reason: dict[str, int]
    adversarial_accepted: int
    adversarial_rejected_by_reason: dict[str, int]
    dt_sa_ms: dict[str, float]
    dt_ca_ms: dict[str, float]
    dt_tx_ms: dict[str, float]
    per_node: dict[str, dict]
    transactions: list[dict]


def _stats(values: list[int | float]) -> dict[str, float]:
    if not values:
        return {"mean": 0.0, "sd": 0.0, "n": 0}
    mean = float(statistics.fmean(values))
    sd = float(statistics.pstdev(values)) if len(values) > 1 else 0.0
    return {"mean": mean, "sd": sd, "n": len(values)}


def build_metrics(result: SimResult, nodes: tuple[NodeState, ...]) -> MetricsReport:
    """Metrics of one run; nodes are the world's initial node states, whose
    roles (before any demotion) label the per-node rows. The pooled client
    figures pool the per-client lists: _stats is exact in any order."""
    rejected: dict[str, int] = {}
    transactions = []
    dt_sa_all: list[int] = []
    per_node_ca: dict[int, list[int]] = {}
    per_node_tx: dict[int, list[int]] = {}

    for record in result.tx_records:
        entry = {
            "tx": record.tx_id,
            "seq": record.seq,
            "device_id": format_device_id(record.device_id),
            "origin": format_device_id(record.origin),
            "t_init": record.t_init,
            "t_send": record.t_send,
            "t_recv_trusted": record.t_recv_trusted,
            "t_validated": record.t_validated,
            "result": "lost" if record.accepted is None
                      else ("accepted" if record.accepted else "rejected"),
            "reason": record.reason,
            "clients": {},
        }
        if record.accepted is None:
            rejected["lost"] = rejected.get("lost", 0) + 1
        elif record.accepted:
            dt_sa_all.append(record.t_validated - record.t_recv_trusted)
        else:
            rejected[record.reason] = rejected.get(record.reason, 0) + 1
        for node_id, outcome in record.client_outcomes.items():
            entry["clients"][format_device_id(node_id)] = {
                "t_recv": outcome.t_recv,
                "t_done": outcome.t_done,
                "accepted": outcome.accepted,
                "reason": outcome.reason,
            }
            if outcome.accepted:
                per_node_ca.setdefault(node_id, []).append(outcome.t_done - outcome.t_recv)
                per_node_tx.setdefault(node_id, []).append(outcome.t_done - record.t_init)
        transactions.append(entry)

    adv_rejected: dict[str, int] = {}
    for outcome in result.adversarial:
        if not outcome.accepted:
            adv_rejected[outcome.reason] = adv_rejected.get(outcome.reason, 0) + 1

    per_node = {}
    for node in nodes:
        stats: dict[str, object] = {"role": node.role}
        if node.role == ROLE_TRUSTED and dt_sa_all:
            stats["dt_sa_ms"] = _stats(dt_sa_all)
        if node.node_id in per_node_ca:
            stats["dt_ca_ms"] = _stats(per_node_ca[node.node_id])
            stats["dt_tx_ms"] = _stats(per_node_tx[node.node_id])
        per_node[format_device_id(node.node_id)] = stats

    return MetricsReport(
        n_transactions=len(result.tx_records),
        n_adversarial=len(result.adversarial),
        accepted=len(dt_sa_all),
        rejected_by_reason=rejected,
        adversarial_accepted=len(result.adversarial) - sum(adv_rejected.values()),
        adversarial_rejected_by_reason=adv_rejected,
        dt_sa_ms=_stats(dt_sa_all),
        dt_ca_ms=_stats([dt for dts in per_node_ca.values() for dt in dts]),
        dt_tx_ms=_stats([dt for dts in per_node_tx.values() for dt in dts]),
        per_node=per_node,
        transactions=transactions,
    )


def timings_csv_lines(report: MetricsReport) -> list[str]:
    """One row per transaction. Client-side columns describe the last client
    to accept the block, on a tie the first in client order, even if others
    rejected or never received it; a row no client accepted leaves them blank."""
    lines = [CSV_HEADER]
    for entry in report.transactions:
        dt_sa = ""
        if entry["t_validated"] is not None:  # netsim sets t_recv_trusted with it
            dt_sa = str(entry["t_validated"] - entry["t_recv_trusted"])
        dt_ca = ""
        dt_tx = ""
        accepted = [outcome for outcome in entry["clients"].values() if outcome["accepted"]]
        if accepted:
            last = max(accepted, key=lambda outcome: outcome["t_done"])
            dt_ca = str(last["t_done"] - last["t_recv"])
            dt_tx = str(last["t_done"] - entry["t_init"])
        reason = entry["reason"] or ""
        lines.append(
            f'{entry["tx"]},{entry["seq"]},{entry["device_id"]},'
            f'{dt_sa},{dt_ca},{dt_tx},{entry["result"]},{reason}'
        )
    return lines


def _scalar(value: object) -> str:
    """A transaction field as json.dumps writes it: int, str, None or bool."""
    if type(value) is int:
        return str(value)
    if type(value) is str:
        return _quote(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    raise TypeError(f"transaction field is not int, str, None or bool: {value!r}")


def _transaction_json(entry: dict) -> str:
    """One build_metrics transaction as json.dumps writes it at indent=1, depth 2."""
    s = _scalar
    clients = "{}"
    if entry["clients"]:
        clients = "{\n" + ",\n".join([
            f'    {_quote(node)}: {{\n     "t_recv": {s(c["t_recv"])},\n'
            f'     "t_done": {s(c["t_done"])},\n     "accepted": {s(c["accepted"])},\n'
            f'     "reason": {s(c["reason"])}\n    }}'
            for node, c in entry["clients"].items()]) + "\n   }"
    return (f'  {{\n   "tx": {s(entry["tx"])},\n   "seq": {s(entry["seq"])},\n'
            f'   "device_id": {s(entry["device_id"])},\n   "origin": {s(entry["origin"])},\n'
            f'   "t_init": {s(entry["t_init"])},\n   "t_send": {s(entry["t_send"])},\n'
            f'   "t_recv_trusted": {s(entry["t_recv_trusted"])},\n'
            f'   "t_validated": {s(entry["t_validated"])},\n'
            f'   "result": {s(entry["result"])},\n   "reason": {s(entry["reason"])},\n'
            f'   "clients": {clients}\n  }}')


def metrics_json(report: MetricsReport) -> str:
    """json.dumps(vars(report), indent=1) for transactions in build_metrics's
    key order: the rest goes through json.dumps, each transaction and client
    outcome through one template. A field not int, str, None or bool raises."""
    head = json.dumps({key: value for key, value in vars(report).items()
                       if key != "transactions"}, indent=1)
    body = ",\n".join(map(_transaction_json, report.transactions))
    body = f"[\n{body}\n ]" if body else "[]"
    return f'{head[:-2]},\n "transactions": {body}\n}}'  # head[:-2] drops its closing "\n}"


@dataclass
class ScenarioOutput:
    built: BuiltWorld
    result: SimResult
    report: MetricsReport
    files: dict[str, Path]


def run_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    """Build the world, run the simulation, assemble metrics, write artifacts.

    Writes one chain file per node plus the registry, the event log, the
    metrics JSON and the per-transaction timing CSV into cfg.out_dir.
    """
    built = build_world(cfg)
    result = netsim.run(built.sim_config, built.scenario)
    report = build_metrics(result, built.scenario.world.nodes)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    for node_id in built.node_ids:
        path = out / f"chain_{format_device_id(node_id)}.ndjson"
        ledger.save_chain(path, result.nodes[node_id].chain)
        files[f"chain_{format_device_id(node_id)}"] = path
    files["registry"] = out / "registry.ndjson"
    registry_mod.save_registry(files["registry"], built.scenario.world.registry)
    files["events"] = out / "events.ndjson"
    netsim.save_events(files["events"], result.events)
    files["metrics"] = out / "metrics.json"
    files["metrics"].write_text(metrics_json(report) + "\n", encoding="ascii")
    files["timings"] = out / "timings.csv"
    files["timings"].write_text("\n".join(timings_csv_lines(report)) + "\n", encoding="ascii")
    return ScenarioOutput(built, result, report, files)


# --- figure-of-merit calibration --------------------------------------------

def run_fom_calibration(cfg: ScenarioConfig) -> dict:
    """Measure uniqueness, reliability and randomness over a device population.

    Each device screens the same candidate pool; its figures are computed
    over its own accepted challenges (capped at fom_n_challenges), with
    uniqueness comparing its responses to every other device's responses on
    that same set. The population rows average the per-device figures.

    Derivations from the seed: device ids from substream 10, the pool from
    substream 20, device d's screening reads from substream (21, d), and
    every reliability read from substream 22, device by device and
    challenge by challenge.
    """
    puf_config = cfg.puf_config()
    policy = cfg.screening_policy()
    devices = [manufacture(puf_config, device_id, i)
               for i, device_id in enumerate(_draw_node_ids(cfg.seed, cfg.fom_n_devices))]

    pool_rng = np.random.default_rng([cfg.seed, _STREAM_FOM_POOL])
    # held as a record holds its challenges: uint8 at the default bank, an
    # eighth of the drawn int64 chunks
    pool = np.empty((cfg.fom_pool_size, 2, RESPONSE_BITS),
                    dtype=selector_dtype(puf_config.bank_size))
    chunks = challenge_chunks(puf_config.bank_size, RESPONSE_BITS, cfg.fom_pool_size, pool_rng)
    for start, chunk in zip(range(0, cfg.fom_pool_size, CHUNK_ROWS), chunks):
        pool[start:start + CHUNK_ROWS] = chunk
    rel_rng = np.random.default_rng([cfg.seed, _STREAM_FOM_RELIABILITY])

    per_device = []
    accepted_counts = []
    common_matrix = None
    for d, device in enumerate(devices):
        # a chunk a call, gathering and reading in rounds as enrollment does
        screen_rng = np.random.default_rng([cfg.seed, _STREAM_FOM_SCREEN, d])
        kept = np.concatenate([
            start + fom.screen_pool(device, pool[start:start + CHUNK_ROWS], policy, screen_rng)[0]
            for start in range(0, cfg.fom_pool_size, CHUNK_ROWS)])
        accepted_counts.append(len(kept))
        if not len(kept):
            raise ScenarioError(
                f"device {format_device_id(device.device_id)} accepted no challenges from the pool")
        # the screened set in one row gather, then every device's reference
        # bits on it, one gather per device: shape (devices, challenges, bits)
        challenges = pool[kept[: cfg.fom_n_challenges]].astype(np.int64)
        matrix = np.stack([arbiter_bits(*selected_freqs(other, challenges))
                           for other in devices]).view(np.uint8)
        if d == 0:
            common_matrix = matrix  # every device on device 0's set, for correlation
        uni = fom.uniqueness(matrix)
        # a chunk of rows a draw: every row's reads, in the order one row a call draws them
        rel = float(np.mean(np.concatenate([
            fom.reliability(device, challenges[start:start + CHUNK_ROWS], cfg.fom_n_reevals,
                            rel_rng)
            for start in range(0, len(challenges), CHUNK_ROWS)])))
        rnd = float(np.mean(fom.randomness(matrix[d])))  # this device's own reference bits
        per_device.append({
            "device_id": format_device_id(device.device_id),
            "uniqueness_pct": uni,
            "reliability_pct": rel,
            "randomness_pct": rnd,
            "n_devices": len(devices),
            "n_challenges": len(challenges),
            "n_reevaluations": cfg.fom_n_reevals,
        })

    population = {  # the mean of the per-device rows
        "uniqueness_pct": float(np.mean([row["uniqueness_pct"] for row in per_device])),
        "reliability_pct": float(np.mean([row["reliability_pct"] for row in per_device])),
        "randomness_pct": float(np.mean([row["randomness_pct"] for row in per_device])),
        "n_devices": len(devices),
        "n_challenges": int(round(float(np.mean([row["n_challenges"] for row in per_device])))),
        "n_reevaluations": cfg.fom_n_reevals,
        "correlation_abs_mean": fom.mean_abs_correlation(common_matrix),
    }
    return {
        "population": population,
        "per_device": per_device,
        "screening": {
            "pool_size": cfg.fom_pool_size,
            "accepted_by_device": accepted_counts,
        },
    }


# --- benchmark ---------------------------------------------------------------

def run_benchmark(cfg: ScenarioConfig) -> dict:
    """Wall-clock medians: authenticate against a realistic stored-response
    set versus mining the toy proof-of-work at the configured difficulty.
    The timing fields are wall-clock measurements and are the one part of
    the harness that is not bit-reproducible."""
    small = replace(cfg, n_clients=1, n_fast_clients=0, n_transactions=0,
                    adversary="none", adversary_events=0)
    built = build_world(small)
    trusted, client = built.scenario.world.nodes
    reg = built.scenario.world.registry
    n_enrolled = len(built.records[client.node_id].responses)
    payload_rng = np.random.default_rng([cfg.seed, _STREAM_PAYLOAD])

    auth_times = []
    for trial in range(cfg.bench_trials):
        block = consensus.initiate(
            client, bytes(payload_rng.bytes(cfg.payload_bytes)),
            trial % n_enrolled, now=trial)
        start = time.perf_counter()
        result = consensus.authenticate(trusted, block, reg, now=trial)
        auth_times.append(time.perf_counter() - start)
        if not result.accepted:
            raise ScenarioError("benchmark authentication unexpectedly failed")

    pow_times = []
    for trial in range(cfg.bench_trials):
        data = BlockData(
            device_id=client.node_id, seq=trial, t_init=trial,
            payload=bytes(payload_rng.bytes(cfg.payload_bytes)))
        start = time.perf_counter()
        consensus.pow_mine_baseline(data, cfg.pow_difficulty_bits)
        pow_times.append(time.perf_counter() - start)

    auth_median = statistics.median(auth_times)
    pow_median = statistics.median(pow_times)
    return {
        "n_trials": cfg.bench_trials,
        "stored_responses": n_enrolled,
        "pow_difficulty_bits": cfg.pow_difficulty_bits,
        "auth_median_ms": auth_median * 1e3,
        "pow_median_ms": pow_median * 1e3,
        "pop_pow_ratio": auth_median / pow_median if pow_median > 0 else None,
    }
