"""Deterministic discrete-event network simulation.

Time is an integer millisecond counter. Every message send samples a link
latency, every handler charges a processing cost, and all draws come from
named generator streams derived from the single simulation seed, so one
(config, scenario) pair always produces one event log, byte for byte.
Jitter, drops and costs each come from one stream of values drawn
_LATENCY_CHUNK at a time, in the order scalar draws would take them:
jitter as integers, drops as uniform doubles, costs as standard normals z
that each node scales to mean + sd * z, which is numpy's normal(mean, sd)
for the same draw. Nodes with different cost models share a chunk, a cost
with sd 0 and a latency with jitter 0 draw nothing, and only a send with a
sender (an honest one) in a lossy run draws a drop value.

The event loop is a heap of handler calls: each entry is a time, a push
counter that breaks ties in push order, a handler and its arguments.
Broadcast is unicast fan-out: the sender schedules one delivery per peer.
There are no sockets and no wall-clock reads anywhere in this module. It
moves blocks and decides no verdict: consensus.admits, judge and penalize do.

Adversaries are part of the scenario, checked when it is built. Each of
the four kinds reads only its target keys, which _TARGET_KEYS lists:

* tamper          - flips one bit of field (default "payload") in the origin
                    broadcast of each of tx_ids, in flight, for every receiver,
* replay          - re-delivers tx_id's origin block to the trusted node at
                    scheduled times,
* fake-device     - no keys: fabricates blocks claiming a device id that was
                    never enrolled and sends them to the trusted node,
* forge-validator - no keys: sends every client fabricated blocks that only
                    claim the trusted node as validator, with a made-up tag.

Fabricated blocks name challenge index 0. Adversarial sends use the
normal latency model but are never dropped, so each injection is judged by
its target and shows up in the result exactly once per receiver.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's own string escape
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import consensus
from .consensus import (
    ROLE_CLIENT,
    ROLE_TRUSTED,
    REASON_NOT_FROM_TRUSTED,
    NodeState,
    Verdict,
    WireBlock,
)
from .errors import ScenarioError
from .ledger import AuthTag, BlockData, HASH_BYTES
from .puf import DEVICE_ID_BITS, format_device_id
from .registry import Registry

_TARGET_KEYS = {"tamper": ("tx_ids", "field"), "replay": ("tx_id",),
                "fake-device": (), "forge-validator": ()}
ADVERSARY_KINDS = tuple(_TARGET_KEYS)
_TAMPER_FIELDS = ("payload", "auth_tag", "device_id")

# named sub-streams of the simulation seed
_STREAM_LATENCY = 1
_STREAM_DROP = 2
_STREAM_COST = 3
_STREAM_ADVERSARY = 4
_LATENCY_CHUNK = 256  # draws per numpy call of a stream: the scalar draws' values, in order


def _stream(draw: Callable[..., np.ndarray], *args) -> Iterator:
    """The values of successive draw(*args, size=_LATENCY_CHUNK) calls, one
    at a time and in order; a chunk is drawn only when the last is used up."""
    while True:
        yield from draw(*args, size=_LATENCY_CHUNK).tolist()


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
    """An attack: its kind, the target keys the kind reads, and when it acts."""

    kind: str
    target: dict
    schedule: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        keys = _TARGET_KEYS.get(self.kind)
        if keys is None:
            raise ScenarioError(f"unknown adversary kind {self.kind!r}")
        if not set(self.target) <= set(keys):
            raise ScenarioError(f"{self.kind} reads only target keys {keys}, got {[*self.target]}")
        if any(t < 0 for t in self.schedule):
            raise ScenarioError("adversary event times must be >= 0")
        if self.kind == "tamper":
            if not self.target.get("tx_ids"):
                raise ScenarioError("tamper target needs valid tx_ids")
            if self.target.get("field", "payload") not in _TAMPER_FIELDS:
                raise ScenarioError(f"tamper field must be one of {_TAMPER_FIELDS}")
            if self.schedule:  # it acts in flight, as its targets are sent
                raise ScenarioError("tamper takes no schedule")
        elif self.kind == "replay" and self.target.get("tx_id") is None:
            raise ScenarioError("replay target needs a valid tx_id")
        if self.kind != "tamper" and not self.schedule:
            raise ScenarioError(f"{self.kind} needs at least one scheduled time")


@dataclass(frozen=True)
class World:
    """Initial node states, in broadcast order, plus the enrollment
    registry. Exactly one node is trusted; it is the registry's trusted id.
    Every node is enrolled. run() never mutates these; it works on copies."""

    nodes: tuple[NodeState, ...]
    registry: Registry


@dataclass(frozen=True)
class Scenario:
    world: World
    initiations: tuple[Initiation, ...]
    adversaries: tuple[Adversary, ...] = ()

    def __post_init__(self) -> None:
        if any(init.t_ms < 0 for init in self.initiations):
            raise ScenarioError("initiation times must be >= 0")
        n_tx = len(self.initiations)
        for adv in self.adversaries:
            if adv.kind == "tamper" and any(not 0 <= t < n_tx for t in adv.target["tx_ids"]):
                raise ScenarioError("tamper target needs valid tx_ids")
            if adv.kind == "replay" and not 0 <= adv.target["tx_id"] < n_tx:
                raise ScenarioError("replay target needs a valid tx_id")


class EventLayout(NamedTuple):
    """An event kind's detail keys in order, one type (int, str or bool) per
    key, and the function that formats such an event's line."""

    kind: str
    keys: tuple[str, ...]
    types: tuple[type, ...]
    line: Callable[[int, str, str, tuple], str]


_BRACES = str.maketrans({"{": "{{", "}": "}}"})  # text to the literal part of an f-string


def event_layout(kind: str, slots: str) -> EventLayout:
    """The layout of kind's events, whose detail slots are "key:type" words
    (type int, str or bool), and its line(t_ms, node_text, block_ref, values)
    compiled once: byte-equal to compact json.dumps, and a TypeError for a
    value whose type is not exactly its slot's (a bool is no int). It is
    compiled by exec: a closure over a % template wrote events 1.7-2x slower."""
    keys, names = zip(*(slot.split(":") for slot in slots.split()))
    spell = {"int": "{v%d}", "bool": '{"true" if v%d else "false"}', "str": "{_quote(v%d)}"}
    detail = ",".join(_quote(key).translate(_BRACES) + ":" + spell[name] % k
                      for k, (key, name) in enumerate(zip(keys, names)))
    text = ('{{"t_ms":{t_ms},"kind":' + _quote(kind).translate(_BRACES) + ',"node":"{node}",'
            '"block_ref":{_quote(block_ref)},"detail":{{' + detail + "}}}}")
    wrong = " or ".join(f"type(v{k}) is not {name}" for k, name in enumerate(names))
    types = tuple({"int": int, "str": str, "bool": bool}[name] for name in names)
    namespace = {"_quote": _quote, "types": types}
    exec(f"def line(t_ms, node, block_ref, values):\n"
         f"    ({''.join(f'v{k},' for k in range(len(keys)))}) = values\n"
         f"    if {wrong}:\n"
         f"        raise TypeError(f'detail values {{values!r}} are not of types {{types}}')\n"
         f"    return f{text!r}\n", namespace)
    return EventLayout(kind, keys, types, namespace["line"])


# every layout netsim logs; reject has one with the hashes it spent and one without
_LOSE = event_layout("lose", "tx:int from:str")
_INITIATE = event_layout("initiate", "tx:int seq:int device_id:str challenge_index:int")
_TAMPER = event_layout("tamper", "tx:int field:str")
_DELIVER = event_layout("deliver", "msg:int tx:int from:str validated:bool adv:str")
_ACCEPT = event_layout("accept", "tx:int seq:int height:int role:str hashes:int adv:str")
_REBROADCAST = event_layout("rebroadcast", "tx:int")
_REJECT_HASHED = event_layout("reject", "msg:int tx:int reason:str hashes:int adv:str")
_REJECT = event_layout("reject", "msg:int tx:int reason:str adv:str")
_PENALIZE = event_layout("penalize", "penalties:int trust_value:int")
_DEMOTE = event_layout("demote", "trust_value:int")
_INJECT_NOOP = event_layout("inject-noop", "kind:str tx:int")
_INJECT_REPLAY = event_layout("inject", "kind:str tx:int")
_INJECT_FAKE = event_layout("inject", "kind:str device_id:str")
_INJECT_FORGE = event_layout("inject", "kind:str claim:str")


class LogEvent(NamedTuple):
    """One logged event: its layout and its detail values in layout order;
    kind and detail (a fresh dict, keys in layout order) derive from them."""

    t_ms: int
    layout: EventLayout
    node: Optional[int]
    block_ref: str
    values: tuple

    @property
    def kind(self) -> str:
        return self.layout.kind

    @property
    def detail(self) -> dict:
        return dict(zip(self.layout.keys, self.values))


def event_to_json_line(event: LogEvent) -> str:
    """The event as one compact JSON object, byte-equal to json.dumps with
    separators=(",", ":"), from its layout's line function: every string is
    escaped as json.dumps escapes it, and a detail value whose type is not
    its slot's raises TypeError."""
    node_text = format_device_id(event.node) if event.node is not None else ""
    return event.layout.line(event.t_ms, node_text, event.block_ref, event.values)


_EVENT_CHUNK = 1024  # lines formatted and written at a time


def save_events(path: str | Path, events: tuple[LogEvent, ...]) -> None:
    """Write each event's event_to_json_line line, _EVENT_CHUNK lines at a
    time: no whole-file text is ever held."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        for start in range(0, len(events), _EVENT_CHUNK):
            lines = list(map(event_to_json_line, events[start:start + _EVENT_CHUNK]))
            lines.append("")
            fh.write("\n".join(lines))


@dataclass(slots=True)
class ClientOutcome:
    t_recv: int
    t_done: int
    accepted: bool
    reason: Optional[str]


@dataclass(slots=True)
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
    receiver: int
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
    tx_id: int  # -1 for a fabricated block
    provenance: str  # "normal" or an adversary kind


class _Sim:
    def __init__(self, config: SimConfig, scenario: Scenario) -> None:
        self.config = config
        self.scenario = scenario
        world_nodes = scenario.world.nodes
        self.order: list[int] = [node.node_id for node in world_nodes]
        if sorted(self.order) != sorted(config.costs):
            raise ScenarioError("cost models and world disagree on node ids")
        trusted = [node.node_id for node in world_nodes if node.role == ROLE_TRUSTED]
        if len(trusted) != 1:
            raise ScenarioError(f"world needs exactly one trusted node, has {len(trusted)}")
        self.trusted_id: int = trusted[0]
        self.registry: Registry = scenario.world.registry
        if self.registry.trusted_id != self.trusted_id:
            raise ScenarioError("the registry's trusted id is not the world's trusted node")
        if not self.registry.has_device(self.trusted_id):
            raise ScenarioError("the trusted node is not enrolled")
        for node_id in self.order:  # the trusted node tags each validation for its receiver
            if not self.registry.has_device(node_id):
                raise ScenarioError(f"node {format_device_id(node_id)} is not enrolled")
        self.peers: dict[int, list[int]] = {
            node_id: [other for other in self.order if other != node_id] for node_id in self.order}
        # run() works on private copies so a scenario can be re-run; a run
        # mutates only a node's chain list, seq dict and scalar fields (its
        # device, challenges and chain entries are immutable and shared)
        self.nodes: dict[int, NodeState] = {
            node.node_id: replace(node, chain=list(node.chain),
                                  last_seq_accepted=dict(node.last_seq_accepted))
            for node in world_nodes
        }

        def rng(stream: int) -> np.random.Generator:
            return np.random.default_rng([config.seed, stream])

        # plain iterators, so that a test can replace one with a fixed schedule
        self.jitter = _stream(rng(_STREAM_LATENCY).integers, 0, config.latency.jitter_ms + 1)
        self.drops = _stream(rng(_STREAM_DROP).random)
        self.normals = _stream(rng(_STREAM_COST).standard_normal)
        self.rng_adv = rng(_STREAM_ADVERSARY)

        self.heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self.push_counter = 0
        self.msg_counter = 0
        self.events: list[LogEvent] = []
        self.free_at: dict[int, int] = {node_id: 0 for node_id in self.order}
        self.tx_records: list[TxRecord] = []
        self.adversarial: list[AdvOutcome] = []
        self.captured_origin: dict[int, WireBlock] = {}
        self.fake_seq = 0

        self.tamper_by_tx: dict[int, str] = {
            tx: adv.target.get("field", "payload") for adv in scenario.adversaries
            if adv.kind == "tamper" for tx in adv.target["tx_ids"]}

    # -- plumbing ------------------------------------------------------------

    def push(self, t: int, handler: Callable[..., None], *args) -> None:
        """Call handler(t, *args) at t, after every call pushed before it for t."""
        heapq.heappush(self.heap, (t, self.push_counter, handler, args))
        self.push_counter += 1

    def log(self, t: int, layout: EventLayout, node: Optional[int], block_ref: str,
            values: tuple) -> None:
        self.events.append(LogEvent(t, layout, node, block_ref, values))

    def latency(self) -> int:
        model = self.config.latency
        return model.base_ms + (next(self.jitter) if model.jitter_ms else 0)

    def cost(self, node_id: int, which: str) -> int:
        model = self.config.costs[node_id]
        if which == "init":
            mean, sd = model.init_mean_ms, model.init_sd_ms
        else:
            mean, sd = model.handle_mean_ms, model.handle_sd_ms
        if sd == 0:
            return max(0, int(round(mean)))
        # normal(mean, sd) is mean + sd * standard_normal(): the same value
        return max(0, int(round(mean + sd * next(self.normals))))

    def occupy(self, node_id: int, arrival: int, cost_ms: int) -> int:
        start = max(arrival, self.free_at[node_id])
        done = start + cost_ms
        self.free_at[node_id] = done
        return done

    def send(self, block: WireBlock, sender: Optional[int], receivers: list[int],
             t_send: int, tx_id: int, provenance: str) -> None:
        # only honest sends are droppable, and each has a sender; an adversary's has none
        drop_rate = self.config.drop_rate if sender is not None else 0.0
        for receiver in receivers:
            if drop_rate and next(self.drops) < drop_rate:
                self.log(t_send, _LOSE, receiver, "", (tx_id, format_device_id(sender)))
                continue
            msg = _Message(self.msg_counter, block, sender, receiver, tx_id, provenance)
            self.msg_counter += 1
            self.push(t_send + self.latency(), self.handle_delivery, msg)

    # -- adversary helpers -----------------------------------------------------

    def flipped(self, raw: bytes) -> bytes:
        """raw with one bit flipped, the bit drawn from rng_adv."""
        bit = int(self.rng_adv.integers(0, len(raw) * 8))
        out = bytearray(raw)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    def tampered_copy(self, block: WireBlock, fld: str) -> WireBlock:
        if fld == "payload" and block.data.payload:
            return replace(block, data=replace(block.data,
                                               payload=self.flipped(block.data.payload)))
        if fld != "device_id":  # the auth tag, or a payload with nothing to flip
            return replace(block, auth_tag=AuthTag(self.flipped(block.auth_tag.h)))
        bit = int(self.rng_adv.integers(0, DEVICE_ID_BITS))
        return replace(block, data=replace(block.data,
                                           device_id=block.data.device_id ^ (1 << bit)))

    def unenrolled_device_id(self) -> int:
        while True:
            candidate = int(self.rng_adv.integers(0, 1 << DEVICE_ID_BITS))
            if not self.registry.has_device(candidate):
                return candidate

    def fabricated_block(self, t: int, device_id: int, seq_base: int,
                         validated: bool) -> WireBlock:
        """A block no device signed, at challenge index 0 and sequence number
        seq_base plus the count of blocks fabricated before it: 8 payload
        bytes and an auth tag, and when validated a validation tag under the
        trusted node's name, drawn from rng_adv in that order."""
        data = BlockData(device_id=device_id, seq=seq_base + self.fake_seq, t_init=t,
                         payload=self.rng_adv.bytes(8))
        self.fake_seq += 1
        auth_tag = AuthTag(self.rng_adv.bytes(HASH_BYTES))
        if not validated:
            return WireBlock(data=data, auth_tag=auth_tag, challenge_index=0)
        return WireBlock(data=data, auth_tag=auth_tag, challenge_index=0,
                         validated_by=self.trusted_id, t_validated=t,
                         validation_tag=self.rng_adv.bytes(HASH_BYTES))

    # -- handlers --------------------------------------------------------------

    def handle_initiation(self, t: int, tx_id: int) -> None:
        init = self.scenario.initiations[tx_id]
        node = self.nodes[init.node_id]
        block = consensus.initiate(node, init.payload, init.challenge_index, now=t)
        t_send = self.occupy(init.node_id, t, self.cost(init.node_id, "init"))
        self.tx_records.append(TxRecord(tx_id=tx_id, origin=init.node_id, t_init=t, t_send=t_send,
                                        device_id=block.data.device_id, seq=block.data.seq))
        self.log(t, _INITIATE, init.node_id, "", (
            tx_id, block.data.seq, format_device_id(block.data.device_id), init.challenge_index))
        provenance = "normal"
        fld = self.tamper_by_tx.get(tx_id)
        if fld is not None:
            block, provenance = self.tampered_copy(block, fld), "tamper"
            self.log(t_send, _TAMPER, None, "", (tx_id, fld))
        self.captured_origin[tx_id] = block
        self.send(block, init.node_id, self.peers[init.node_id], t_send, tx_id, provenance)

    def handle_delivery(self, t: int, msg: _Message) -> None:
        receiver = msg.receiver
        self.log(t, _DELIVER, receiver, "", (
            msg.msg_id, msg.tx_id, format_device_id(msg.sender) if msg.sender is not None else "",
            msg.block.is_validated, msg.provenance))
        if not consensus.admits(self.nodes[receiver], msg.block, self.nodes[self.trusted_id]):
            self.record_verdict(t, msg, None)
            return
        # reserve the receiver and let the verdict land when the work ends:
        # appends, penalties and demotions happen in global time order
        done = self.occupy(receiver, t, self.cost(receiver, "handle"))
        self.push(done, self.handle_judgment, msg, t)

    def handle_judgment(self, done: int, msg: _Message, arrival: int) -> None:
        result = consensus.judge(self.nodes[msg.receiver], msg.block, self.registry,
                                 self.peers[msg.receiver], done)
        self.record_verdict(done, msg, result, arrival)

    def record_verdict(self, t: int, msg: _Message, result: Optional[Verdict],
                       arrival: Optional[int] = None) -> None:
        """Log one node's verdict on one delivery and account for it.

        A result of None is a not-from-trusted reject that spent no
        validation work. Adversarial deliveries become AdvOutcomes; honest
        ones update their TxRecord. So does an accepted replay that overtook
        its transaction's origin copy: it carries exactly the block the
        origin sent, and the origin copy's replay reject that follows leaves
        the record alone. A verdict's rebroadcast is sent, each block to its
        own peer, and the node it blames is penalized."""
        receiver = msg.receiver
        accepted = result is not None and result.accepted
        reason = result.reason if result is not None else REASON_NOT_FROM_TRUSTED
        tx = msg.tx_id
        overtook = (msg.provenance == "replay" and accepted
                    and self.tx_records[tx].accepted is None)
        if msg.provenance != "normal" and not overtook:
            self.adversarial.append(AdvOutcome(msg.provenance, receiver, accepted, reason))
        elif tx >= 0 and result is not None:
            record = self.tx_records[tx]
            if msg.block.is_validated:
                record.client_outcomes[receiver] = ClientOutcome(arrival, t, accepted, reason)
            elif record.accepted is None:
                record.t_recv_trusted = arrival
                record.t_validated = t
                record.accepted = accepted
                record.reason = reason
        if accepted:
            entry = result.entry
            self.log(t, _ACCEPT, receiver, entry.hash_hex, (tx, entry.data.seq, entry.height,
                     self.nodes[receiver].role, result.hashes_tried, msg.provenance))
            if result.rebroadcast is not None:
                self.log(t, _REBROADCAST, receiver, entry.hash_hex, (tx,))
                for peer, block in result.rebroadcast:
                    self.send(block, receiver, [peer], t, tx, "normal")
            return
        if result is None:
            self.log(t, _REJECT, receiver, "", (msg.msg_id, tx, reason, msg.provenance))
        else:
            self.log(t, _REJECT_HASHED, receiver, "", (
                msg.msg_id, tx, reason, result.hashes_tried, msg.provenance))
            if result.blamed is not None:
                blamed = self.nodes[result.blamed]
                demoted = consensus.penalize(blamed, self.config.demotion_threshold)
                self.log(t, _PENALIZE, result.blamed, "", (blamed.penalties, blamed.trust_value))
                if demoted:
                    self.log(t, _DEMOTE, result.blamed, "", (blamed.trust_value,))

    def handle_injection(self, t: int, adv: Adversary) -> None:
        if adv.kind == "replay":
            tx_id = adv.target["tx_id"]
            block = self.captured_origin.get(tx_id)
            if block is None:
                self.log(t, _INJECT_NOOP, None, "", (adv.kind, tx_id))
                return
            self.log(t, _INJECT_REPLAY, None, "", (adv.kind, tx_id))
            self.send(block, None, [self.trusted_id], t, tx_id, "replay")
        elif adv.kind == "fake-device":
            block = self.fabricated_block(t, self.unenrolled_device_id(), 0, validated=False)
            self.log(t, _INJECT_FAKE, None, "", (adv.kind, format_device_id(block.data.device_id)))
            self.send(block, None, [self.trusted_id], t, -1, adv.kind)
        elif adv.kind == "forge-validator":
            # an enrolled device id, far past any honest sequence number
            block = self.fabricated_block(t, self.order[-1], 1 << 32, validated=True)
            clients = [n for n in self.order if self.nodes[n].role == ROLE_CLIENT]
            self.log(t, _INJECT_FORGE, None, "", (adv.kind, format_device_id(self.trusted_id)))
            self.send(block, None, clients, t, -1, adv.kind)

    def run(self) -> SimResult:
        for tx_id, init in enumerate(self.scenario.initiations):
            self.push(init.t_ms, self.handle_initiation, tx_id)
        for adv in self.scenario.adversaries:
            for t in adv.schedule:
                self.push(t, self.handle_injection, adv)
        while self.heap:
            t, _, handler, args = heapq.heappop(self.heap)
            handler(t, *args)
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
    return _Sim(config, scenario).run()
