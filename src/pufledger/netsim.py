"""Deterministic discrete-event network simulation.

Time is an integer millisecond counter. Every message send samples a link
latency, every handler charges a processing cost, and all draws come from
named generator streams derived from the single simulation seed, so one
(config, scenario) pair always produces one event log, byte for byte.
Jitter and costs are drawn _LATENCY_CHUNK values at a time, in the order
scalar draws would take them: jitter as integers, costs as standard
normals z that each node scales to mean + sd * z, which is numpy's
normal(mean, sd) for the same draw. Nodes with different cost models share
a chunk, and a cost with sd 0 draws nothing.

Broadcast is unicast fan-out: the sender schedules one delivery per peer.
There are no sockets and no wall-clock reads anywhere in this module.

Adversaries are part of the scenario. Four kinds are understood:

* tamper          - flips one bit of a chosen field in a transaction's
                    origin broadcast, in flight, for every receiver,
* replay          - re-delivers a previously broadcast origin block to the
                    trusted node at scheduled times,
* fake-device     - fabricates blocks claiming a device id that was never
                    enrolled and sends them to the trusted node,
* forge-validator - fabricates blocks that merely claim a validator id,
                    with a made-up validation tag, and sends them to every
                    client.

Adversarial sends use the normal latency model but are never dropped, so
each injection is judged by its target and shows up in the result exactly
once per receiver.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's own string escape
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import consensus
from .consensus import (
    ROLE_CLIENT,
    ROLE_TRUSTED,
    REASON_NO_MATCH,
    REASON_NOT_FROM_TRUSTED,
    NodeState,
    Verdict,
    WireBlock,
)
from .errors import ScenarioError
from .ledger import AuthTag, BlockData, HASH_BYTES
from .puf import DEVICE_ID_BITS, format_device_id
from .registry import Registry, trusted_view

ADVERSARY_KINDS = ("tamper", "replay", "fake-device", "forge-validator")
_TAMPER_FIELDS = ("payload", "auth_tag", "device_id")

# named sub-streams of the simulation seed
_STREAM_LATENCY = 1
_STREAM_DROP = 2
_STREAM_COST = 3
_STREAM_ADVERSARY = 4
_LATENCY_CHUNK = 256  # jitter and cost draws per numpy call: the scalar draws' values, in order


@dataclass(frozen=True)
class LatencyModel:
    """Latency of every link: base_ms plus a uniform integer jitter in [0, jitter_ms]."""

    base_ms: int
    jitter_ms: int

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.jitter_ms < 0:
            raise ScenarioError("latency parameters must be >= 0")


@dataclass(frozen=True)
class CostModel:
    """Per-node processing costs in ms, drawn Normal(mean, sd), floored at 0.

    init_* applies when the node signs and broadcasts its own block,
    handle_* when it judges an incoming one.
    """

    init_mean_ms: float
    init_sd_ms: float
    handle_mean_ms: float
    handle_sd_ms: float

    def __post_init__(self) -> None:
        values = (self.init_mean_ms, self.init_sd_ms, self.handle_mean_ms, self.handle_sd_ms)
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise ScenarioError(f"cost parameters must be finite and >= 0, got {values}")


@dataclass(frozen=True)
class SimConfig:
    """Run settings. costs holds one CostModel per world node id; a
    demotion_threshold of 0 disables demotion."""

    seed: int
    latency: LatencyModel
    drop_rate: float
    costs: dict[int, CostModel]
    demotion_threshold: int = 3

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ScenarioError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.demotion_threshold < 0:
            raise ScenarioError("demotion_threshold must be >= 0 (0 disables)")


@dataclass(frozen=True)
class Initiation:
    """One scheduled transaction: node_id signs payload at t_ms."""

    t_ms: int
    node_id: int
    payload: bytes
    challenge_index: int


@dataclass(frozen=True)
class Adversary:
    kind: str
    target: dict
    schedule: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ScenarioError(f"unknown adversary kind {self.kind!r}")


@dataclass(frozen=True)
class World:
    """Initial node states, in broadcast order, plus the enrollment
    registry. run() never mutates these; it works on copies."""

    nodes: tuple[NodeState, ...]
    registry: Registry


@dataclass(frozen=True)
class Scenario:
    world: World
    initiations: tuple[Initiation, ...]
    adversaries: tuple[Adversary, ...] = ()


def inject(adversary: Adversary, scenario: Scenario) -> Scenario:
    """Validate an adversary against the scenario and return the extended
    scenario. The original scenario is untouched."""
    if any(t < 0 for t in adversary.schedule):
        raise ScenarioError("adversary event times must be >= 0")
    n_tx = len(scenario.initiations)
    target = adversary.target
    if adversary.kind == "tamper":
        tx_ids = target.get("tx_ids")
        if not tx_ids or any(not 0 <= t < n_tx for t in tx_ids):
            raise ScenarioError("tamper target needs valid tx_ids")
        if target.get("field", "payload") not in _TAMPER_FIELDS:
            raise ScenarioError(f"tamper field must be one of {_TAMPER_FIELDS}")
    elif adversary.kind == "replay":
        tx_id = target.get("tx_id")
        if tx_id is None or not 0 <= tx_id < n_tx:
            raise ScenarioError("replay target needs a valid tx_id")
    if adversary.kind != "tamper" and not adversary.schedule:
        raise ScenarioError(f"{adversary.kind} needs at least one scheduled time")
    return replace(scenario, adversaries=scenario.adversaries + (adversary,))


class LogEvent(NamedTuple):
    t_ms: int
    kind: str
    node: Optional[int]
    block_ref: str
    detail: dict


def event_to_json_line(event: LogEvent) -> str:
    """The event as one compact JSON object, byte-equal to json.dumps with
    separators=(",", ":"). Detail values are str, bool or int; every string
    is escaped as json.dumps escapes it."""
    detail = []
    for key, value in event.detail.items():
        if isinstance(value, str):
            value = _quote(value)
        elif value is True or value is False:
            value = "true" if value else "false"
        elif type(value) is not int:
            raise TypeError(f"event detail {key!r} is not str, bool or int: {value!r}")
        detail.append(f"{_quote(key)}:{value}")
    node = format_device_id(event.node) if event.node is not None else ""
    return (f'{{"t_ms":{event.t_ms},"kind":{_quote(event.kind)},"node":"{node}",'
            f'"block_ref":{_quote(event.block_ref)},"detail":{{{",".join(detail)}}}}}')


def save_events(path: str | Path, events: tuple[LogEvent, ...]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("".join([event_to_json_line(event) + "\n" for event in events]))


@dataclass
class ClientOutcome:
    t_recv: int
    t_done: int
    accepted: bool
    reason: Optional[str]


@dataclass
class TxRecord:
    """Complete timing picture of one initiated transaction."""

    tx_id: int
    origin: int
    device_id: int
    seq: int
    t_init: int
    t_send: int
    t_recv_trusted: Optional[int] = None
    t_validated: Optional[int] = None
    accepted: Optional[bool] = None
    reason: Optional[str] = None
    client_outcomes: dict[int, ClientOutcome] = field(default_factory=dict)


@dataclass(frozen=True)
class AdvOutcome:
    """How one adversarial delivery was judged."""

    kind: str
    msg_id: int
    receiver: int
    receiver_role: str
    t_ms: int
    accepted: bool
    reason: Optional[str]


@dataclass
class SimResult:
    events: tuple[LogEvent, ...]
    nodes: dict[int, NodeState]
    tx_records: tuple[TxRecord, ...]
    adversarial: tuple[AdvOutcome, ...]


class _Message(NamedTuple):
    msg_id: int
    block: WireBlock
    sender: Optional[int]
    receiver: int
    tx_id: Optional[int]
    provenance: str  # "normal" or an adversary kind


class _Sim:
    def __init__(self, config: SimConfig, scenario: Scenario) -> None:
        self.config = config
        self.scenario = scenario
        world_nodes = scenario.world.nodes
        self.order: list[int] = [node.node_id for node in world_nodes]
        if sorted(self.order) != sorted(config.costs):
            raise ScenarioError("cost models and world disagree on node ids")
        self.trusted_live: list[int] = [
            node.node_id for node in world_nodes if node.role == ROLE_TRUSTED
        ]
        if not self.trusted_live:
            raise ScenarioError("world needs at least one trusted node")
        # run() works on private copies so a scenario can be re-run; a run
        # mutates only a node's chain list, seq dict and scalar fields (its
        # device, challenges and chain entries are immutable and shared)
        self.nodes: dict[int, NodeState] = {
            node.node_id: replace(node, chain=list(node.chain),
                                  last_seq_accepted=dict(node.last_seq_accepted))
            for node in world_nodes
        }
        self.registry: Registry = scenario.world.registry
        self.view = trusted_view(self.registry)

        self.rng_latency = np.random.default_rng([config.seed, _STREAM_LATENCY])
        self.jitter_left: list[int] = []  # the current chunk's undrawn values, last first
        self.rng_drop = np.random.default_rng([config.seed, _STREAM_DROP])
        self.rng_cost = np.random.default_rng([config.seed, _STREAM_COST])
        self.normals_left: list[float] = []  # as jitter_left, for the cost draws
        self.rng_adv = np.random.default_rng([config.seed, _STREAM_ADVERSARY])

        self.heap: list[tuple[int, int, tuple]] = []
        self.push_counter = 0
        self.msg_counter = 0
        self.events: list[LogEvent] = []
        self.free_at: dict[int, int] = {node_id: 0 for node_id in self.order}
        self.tx_records: list[TxRecord] = []
        self.adversarial: list[AdvOutcome] = []
        self.captured_origin: dict[int, WireBlock] = {}
        self.penalties: dict[int, int] = {}
        self.fake_seq = 0

        tamper_by_tx: dict[int, str] = {}
        for adv in scenario.adversaries:
            if adv.kind == "tamper":
                for tx in adv.target["tx_ids"]:
                    tamper_by_tx[tx] = adv.target.get("field", "payload")
        self.tamper_by_tx = tamper_by_tx

    # -- plumbing ------------------------------------------------------------

    def push(self, t: int, item: tuple) -> None:
        heapq.heappush(self.heap, (t, self.push_counter, item))
        self.push_counter += 1

    def log(self, t: int, kind: str, node: Optional[int], block_ref: str, detail: dict) -> None:
        self.events.append(LogEvent(t, kind, node, block_ref, detail))

    def latency(self) -> int:
        model = self.config.latency
        if model.jitter_ms and not self.jitter_left:
            chunk = self.rng_latency.integers(0, model.jitter_ms + 1, size=_LATENCY_CHUNK)
            self.jitter_left = chunk.tolist()[::-1]
        return model.base_ms + (self.jitter_left.pop() if model.jitter_ms else 0)

    def cost(self, node_id: int, which: str) -> int:
        model = self.config.costs[node_id]
        if which == "init":
            mean, sd = model.init_mean_ms, model.init_sd_ms
        else:
            mean, sd = model.handle_mean_ms, model.handle_sd_ms
        if sd == 0:
            return max(0, int(round(mean)))
        # normal(mean, sd) is mean + sd * standard_normal(): the same value
        if not self.normals_left:
            self.normals_left = self.rng_cost.standard_normal(_LATENCY_CHUNK).tolist()[::-1]
        return max(0, int(round(mean + sd * self.normals_left.pop())))

    def occupy(self, node_id: int, arrival: int, cost_ms: int) -> int:
        start = max(arrival, self.free_at[node_id])
        done = start + cost_ms
        self.free_at[node_id] = done
        return done

    def send(self, block: WireBlock, sender: Optional[int], receivers: list[int],
             t_send: int, tx_id: Optional[int], provenance: str,
             droppable: bool = True) -> None:
        for receiver in receivers:
            if droppable and self.config.drop_rate > 0.0:
                if float(self.rng_drop.random()) < self.config.drop_rate:
                    self.log(t_send, "lose", receiver, "", {
                        "tx": tx_id if tx_id is not None else -1,
                        "from": format_device_id(sender) if sender is not None else "",
                    })
                    continue
            msg = _Message(self.msg_counter, block, sender, receiver, tx_id, provenance)
            self.msg_counter += 1
            self.push(t_send + self.latency(), ("deliver", msg))

    def peers_of(self, node_id: int) -> list[int]:
        return [other for other in self.order if other != node_id]

    # -- adversary helpers -----------------------------------------------------

    def tampered_copy(self, block: WireBlock, fld: str) -> WireBlock:
        if fld == "payload" and len(block.data.payload) == 0:
            fld = "auth_tag"  # nothing to flip in an empty payload
        if fld == "payload":
            bit = int(self.rng_adv.integers(0, len(block.data.payload) * 8))
            raw = bytearray(block.data.payload)
            raw[bit // 8] ^= 1 << (bit % 8)
            data = replace(block.data, payload=bytes(raw))
            return replace(block, data=data)
        if fld == "auth_tag":
            bit = int(self.rng_adv.integers(0, HASH_BYTES * 8))
            raw = bytearray(block.auth_tag.h)
            raw[bit // 8] ^= 1 << (bit % 8)
            return replace(block, auth_tag=AuthTag(bytes(raw)))
        bit = int(self.rng_adv.integers(0, DEVICE_ID_BITS))
        data = replace(block.data, device_id=block.data.device_id ^ (1 << bit))
        return replace(block, data=data)

    def unenrolled_device_id(self) -> int:
        while True:
            candidate = int(self.rng_adv.integers(0, 1 << DEVICE_ID_BITS))
            if not self.registry.has_device(candidate):
                return candidate

    def random_tag(self) -> bytes:
        return self.rng_adv.bytes(HASH_BYTES)

    # -- handlers --------------------------------------------------------------

    def handle_initiation(self, t: int, tx_id: int) -> None:
        init = self.scenario.initiations[tx_id]
        node = self.nodes[init.node_id]
        block = consensus.initiate(node, init.payload, init.challenge_index, now=t)
        t_send = self.occupy(init.node_id, t, self.cost(init.node_id, "init"))
        record = TxRecord(
            tx_id=tx_id, origin=init.node_id, device_id=block.data.device_id,
            seq=block.data.seq, t_init=t, t_send=t_send,
        )
        self.tx_records.append(record)
        self.log(t, "initiate", init.node_id, "", {
            "tx": tx_id, "seq": block.data.seq,
            "device_id": format_device_id(block.data.device_id),
            "challenge_index": init.challenge_index,
        })
        provenance = "normal"
        out_block = block
        if tx_id in self.tamper_by_tx:
            fld = self.tamper_by_tx[tx_id]
            out_block = self.tampered_copy(block, fld)
            provenance = "tamper"
            self.log(t_send, "tamper", None, "", {"tx": tx_id, "field": fld})
        self.captured_origin[tx_id] = out_block
        self.send(out_block, init.node_id, self.peers_of(init.node_id), t_send, tx_id, provenance)

    def handle_delivery(self, t: int, msg: _Message) -> None:
        receiver = msg.receiver
        role = self.nodes[receiver].role
        self.log(t, "deliver", receiver, "", {
            "msg": msg.msg_id,
            "tx": msg.tx_id if msg.tx_id is not None else -1,
            "from": format_device_id(msg.sender) if msg.sender is not None else "",
            "validated": msg.block.is_validated,
            "adv": msg.provenance,
        })
        if msg.block.is_validated:
            if role == ROLE_TRUSTED:
                # a trusted node replicates nothing; it already holds its own entry
                self.log(t, "ignore", receiver, "", {"msg": msg.msg_id})
                return
            # structural drop at arrival when the header names nobody trusted:
            # no validation work is spent on it
            judged = msg.block.validated_by in self.trusted_live
        else:
            # clients act only on blocks a trusted node has validated
            judged = role == ROLE_TRUSTED
        if not judged:
            self.record_verdict(t, msg, None)
            return
        # reserve the receiver and let the verdict land when the work ends:
        # appends, penalties and demotions happen in global time order
        done = self.occupy(receiver, t, self.cost(receiver, "handle"))
        self.push(done, ("judge", msg, t))

    def handle_judgment(self, done: int, msg: _Message, arrival: int) -> None:
        node = self.nodes[msg.receiver]
        if msg.block.is_validated:
            result = consensus.accept_validated(node, msg.block, self.view, now=done)
        elif node.role == ROLE_TRUSTED:
            result = consensus.authenticate(node, msg.block, self.registry, now=done)
        else:
            result = None  # demoted while this block sat in its queue: authority is gone
        self.record_verdict(done, msg, result, arrival)

    def record_verdict(self, t: int, msg: _Message,
                       result: Optional[Verdict],
                       arrival: Optional[int] = None) -> None:
        """Log one node's verdict on one delivery and account for it.

        A result of None is a not-from-trusted reject that spent no
        validation work. Adversarial deliveries become AdvOutcomes; honest
        ones update their TxRecord. So does an accepted replay that overtook
        its transaction's origin copy: it carries exactly the block the
        origin sent, and the origin copy's replay reject that follows leaves
        the record alone. A trusted accept is rebroadcast, and a client's
        no-match penalizes the validator the block names."""
        receiver = msg.receiver
        role = self.nodes[receiver].role
        accepted = result is not None and result.accepted
        reason = result.reason if result is not None else REASON_NOT_FROM_TRUSTED
        tx = msg.tx_id if msg.tx_id is not None else -1
        overtook = (msg.provenance == "replay" and accepted
                    and self.tx_records[msg.tx_id].accepted is None)
        if msg.provenance != "normal" and not overtook:
            self.adversarial.append(AdvOutcome(
                kind=msg.provenance, msg_id=msg.msg_id, receiver=receiver,
                receiver_role=role, t_ms=t, accepted=accepted, reason=reason,
            ))
        elif msg.tx_id is not None and result is not None:
            record = self.tx_records[msg.tx_id]
            if msg.block.is_validated:
                record.client_outcomes[receiver] = ClientOutcome(arrival, t, accepted, reason)
            elif record.accepted is None:
                record.t_recv_trusted = arrival
                record.t_validated = t
                record.accepted = accepted
                record.reason = reason
        if accepted:
            entry = result.entry
            self.log(t, "accept", receiver, entry.entry_hash.hex(), {
                "tx": tx, "seq": entry.data.seq, "height": entry.height,
                "role": role, "hashes": result.hashes_tried, "adv": msg.provenance,
            })
            if role == ROLE_TRUSTED:
                self.log(t, "rebroadcast", receiver, entry.entry_hash.hex(), {"tx": tx})
                self.send(result.rebroadcast, receiver, self.peers_of(receiver),
                          t, msg.tx_id, "normal")
            return
        detail = {"msg": msg.msg_id, "tx": tx, "reason": reason}
        if result is not None:
            detail["hashes"] = result.hashes_tried
        detail["adv"] = msg.provenance
        self.log(t, "reject", receiver, "", detail)
        if msg.block.is_validated and reason == REASON_NO_MATCH:
            self.penalize(t, msg.block.validated_by)

    def penalize(self, t: int, trusted_id: int) -> None:
        """A client caught a bad validation under this trusted node's name."""
        self.penalties[trusted_id] = self.penalties.get(trusted_id, 0) + 1
        node = self.nodes[trusted_id]
        node.trust_value -= 1
        self.log(t, "penalize", trusted_id, "", {
            "penalties": self.penalties[trusted_id], "trust_value": node.trust_value,
        })
        threshold = self.config.demotion_threshold
        if threshold and self.penalties[trusted_id] >= threshold \
                and trusted_id in self.trusted_live:
            self.trusted_live.remove(trusted_id)
            node.role = ROLE_CLIENT
            self.log(t, "demote", trusted_id, "", {"trust_value": node.trust_value})

    def handle_injection(self, t: int, adv_index: int) -> None:
        adv = self.scenario.adversaries[adv_index]
        if adv.kind == "replay":
            tx_id = adv.target["tx_id"]
            block = self.captured_origin.get(tx_id)
            if block is None:
                self.log(t, "inject-noop", None, "", {"kind": adv.kind, "tx": tx_id})
                return
            receivers = list(self.trusted_live) or [self.order[0]]
            self.log(t, "inject", None, "", {"kind": adv.kind, "tx": tx_id})
            self.send(block, None, receivers, t, tx_id, "replay", droppable=False)
        elif adv.kind == "fake-device":
            data = BlockData(
                device_id=self.unenrolled_device_id(),
                seq=self.fake_seq, t_init=t,
                payload=bytes(self.rng_adv.bytes(8)),
            )
            self.fake_seq += 1
            block = WireBlock(data=data, auth_tag=AuthTag(self.random_tag()))
            receivers = list(self.trusted_live) or [self.order[0]]
            self.log(t, "inject", None, "", {
                "kind": adv.kind, "device_id": format_device_id(data.device_id),
            })
            self.send(block, None, receivers, t, None, "fake-device", droppable=False)
        elif adv.kind == "forge-validator":
            claim_id = self.trusted_live[0] if self.trusted_live else self.order[0]
            victim = self.order[-1]  # an enrolled device id to put in the block
            data = BlockData(
                device_id=victim,
                seq=(1 << 32) + self.fake_seq,  # far past any honest sequence number
                t_init=t,
                payload=bytes(self.rng_adv.bytes(8)),
            )
            self.fake_seq += 1
            block = WireBlock(
                data=data, auth_tag=AuthTag(self.random_tag()),
                validated_by=claim_id, t_validated=t, validation_tag=self.random_tag(),
            )
            clients = [n for n in self.order if self.nodes[n].role == ROLE_CLIENT]
            self.log(t, "inject", None, "", {
                "kind": adv.kind, "claim": format_device_id(claim_id),
            })
            self.send(block, None, clients, t, None, "forge-validator", droppable=False)

    def run(self) -> SimResult:
        for tx_id in range(len(self.scenario.initiations)):
            self.push(self.scenario.initiations[tx_id].t_ms, ("init", tx_id))
        for adv_index, adv in enumerate(self.scenario.adversaries):
            for t in adv.schedule:
                self.push(t, ("inject", adv_index))
        while self.heap:
            t, _, item = heapq.heappop(self.heap)
            if item[0] == "init":
                self.handle_initiation(t, item[1])
            elif item[0] == "deliver":
                self.handle_delivery(t, item[1])
            elif item[0] == "judge":
                self.handle_judgment(t, item[1], item[2])
            else:
                self.handle_injection(t, item[1])
        # a stable sort puts the log in simulated-time order; entries sharing
        # a timestamp keep their processing order
        self.events.sort(key=lambda event: event.t_ms)
        return SimResult(
            events=tuple(self.events),
            nodes=self.nodes,
            tx_records=tuple(self.tx_records),
            adversarial=tuple(self.adversarial),
        )


def run(config: SimConfig, scenario: Scenario) -> SimResult:
    """Execute the scenario and return the full result; result.events is the
    event log and is a pure function of (config, scenario)."""
    for init in scenario.initiations:
        if init.t_ms < 0:
            raise ScenarioError("initiation times must be >= 0")
    return _Sim(config, scenario).run()
