"""External file formats: chain snapshots, scenarios, network configs, reports.

Chain snapshot: JSON {"blocks": [{"header": {...}, "events": [...]}]} with
digests as lowercase hex. Scenario: JSON Lines, one event per line with the
round it is due; it reads as unsigned events with ids by position.
Network config: JSON with the NetworkConfig fields (target as hex) plus an
optional "roles" map for the organizational context. Evaluation report: one
JSON document with chain tip, instance table, derived facts and trust rows in
stable order; docs/report-schema.json is the schema it validates against.
Snapshots and reports are written byte for byte as json.dumps(value,
indent=2) plus "\n": two-space indents, every non-ASCII character escaped.
"""

from __future__ import annotations

import json
import re
import struct
from typing import Optional

from .evaluator import EvalState, NormInstance
from .ledger import Block, BlockHeader, Chain, Event, Position
from .matching import DerivedFact
from .network import NetworkConfig, NetworkResult
from .trust import TrustScore


class DataFormatError(Exception):
    """A file failed to parse against its documented format."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataFormatError(message)


def _is_u64(value) -> bool:
    return type(value) is int and 0 <= value < 2**64  # a bool is not one


_SURROGATE = re.compile("[\ud800-\udfff]")
_encode_text = json.encoder.encode_basestring_ascii


def _is_text(value) -> bool:
    """A string UTF-8 can encode: JSON admits lone surrogates, which it cannot."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def _is_text_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_text, value))


_NOT_ENCODABLE = "event {!r} is not encodable: text must be UTF-8, logical_ts u64, attributes text, bool or i64"


def _encodable(event: Event) -> bool:
    """Whether the canonical serialization, which the event then keeps,
    encodes it; struct packs a boolean logical_ts as 1, so that is refused apart."""
    try:
        event.signing_bytes()
    except (AttributeError, TypeError, ValueError, struct.error):
        return False
    return type(event.logical_ts) is not bool


def _read_utf8(path: str, what: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{what} is not UTF-8: {exc}") from exc


def _load_json(path: str, what: str):
    try:
        return json.loads(_read_utf8(path, what))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or too many digits
        raise DataFormatError(f"{what} is not valid JSON: {exc}") from exc


_SCALARS = {str: _encode_text, int: int.__repr__, float: json.dumps,  # repr, NaN or ±Infinity
            bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__}


def _indented(value, out: list, newline: str = "\n") -> None:
    """Append to out the text of json.dumps(value, indent=2) for a dict or list whose dicts have
    text keys and whose leaves have _SCALARS types, each leaf written in its container's loop.
    With indent set, json itself drops its C encoder for a generator per level."""
    inner = newline + "  "
    comma = "," + inner
    if isinstance(value, dict):
        separator = "{" + inner
        for key, item in value.items():
            head, scalar = separator + _encode_text(key) + ": ", _SCALARS.get(type(item))
            out.append(head if scalar is None else head + scalar(item))
            if scalar is None:
                _indented(item, out, inner)
            separator = comma
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        separator = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            out.append(separator if scalar is None else separator + scalar(item))
            if scalar is None:
                _indented(item, out, inner)
            separator = comma
        out.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_indented(value, path: str) -> None:
    out: list[str] = []
    _indented(value, out)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(out) + "\n")


# --- chain snapshots ------------------------------------------------------


def event_to_json(event: Event) -> dict:
    return {
        "event_id": event.event_id,
        "event_type": event.event_type,
        "attributes": dict(event.attributes),
        "emitter": event.emitter,
        "logical_ts": event.logical_ts,
        "signature": event.signature.hex(),
    }


def event_from_json(data: dict) -> Event:
    try:
        event = Event.make(
            event_id=data["event_id"],
            event_type=data["event_type"],
            attributes=data["attributes"],
            emitter=data["emitter"],
            logical_ts=data["logical_ts"],
            signature=bytes.fromhex(data["signature"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataFormatError(f"bad event record: {exc}") from exc
    if not _encodable(event):
        raise DataFormatError("bad event record: " + _NOT_ENCODABLE.format(event.event_id))
    return event


def chain_to_json(chain: Chain) -> dict:
    return {
        "blocks": [
            {
                "header": {
                    "index": block.header.index,
                    "prev_hash": block.header.prev_hash.hex(),
                    "events_digest": block.header.events_digest.hex(),
                    "miner": block.header.miner,
                    "nonce": block.header.nonce,
                },
                "events": [event_to_json(e) for e in block.events],
            }
            for block in chain.blocks
        ]
    }


def chain_from_json(data: dict) -> Chain:
    _require(
        isinstance(data, dict) and isinstance(data.get("blocks"), list),
        "chain snapshot needs a blocks array",
    )
    blocks = []
    for item in data["blocks"]:
        try:
            header = BlockHeader(
                index=item["header"]["index"],
                prev_hash=bytes.fromhex(item["header"]["prev_hash"]),
                events_digest=bytes.fromhex(item["header"]["events_digest"]),
                miner=item["header"]["miner"],
                nonce=item["header"]["nonce"],
            )
            events = item.get("events", [])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"bad block header: {exc}") from exc
        _require(
            _is_u64(header.index) and _is_u64(header.nonce) and _is_text(header.miner),
            "bad block header: index and nonce must be integers in [0, 2**64), miner text",
        )
        _require(isinstance(events, list), "bad block: events must be an array")
        try:
            blocks.append(Block(header=header, events=tuple(map(event_from_json, events))))
        except DataFormatError as exc:
            raise DataFormatError(f"block {len(blocks)}: {exc}") from exc
    _require(bool(blocks), "chain snapshot has no blocks")
    return Chain(blocks=tuple(blocks))


def write_chain(chain: Chain, path: str) -> None:
    _write_indented(chain_to_json(chain), path)


def read_chain(path: str) -> Chain:
    return chain_from_json(_load_json(path, "chain snapshot"))


# --- scenarios --------------------------------------------------------------


def read_scenario(path: str) -> list[tuple[int, Event]]:
    """Each line's round and its unsigned event. Ids are evt-00000,
    evt-00001, ... by position; run_network signs the events."""
    scenario = []
    lines = _read_utf8(path, "scenario").split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            round_no = data["round"]
            event = Event.make(
                event_id=f"evt-{len(scenario):05d}",
                event_type=data["event_type"],
                attributes=data.get("attributes", {}),
                emitter=data["emitter"],
                logical_ts=data.get("logical_ts", round_no),
            )
        except (ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
            raise DataFormatError(f"{path}:{lineno}: not a scenario event: {exc}") from exc
        if type(round_no) is not int or round_no < 0:
            raise DataFormatError(f"{path}:{lineno}: round must be a non-negative integer")
        if not _encodable(event):
            raise DataFormatError(f"{path}:{lineno}: " + _NOT_ENCODABLE.format(event.event_id))
        scenario.append((round_no, event))
    return scenario


# --- network config ---------------------------------------------------------

# The lowest target a network config may set. Mining a block scans about
# 2**256 / target nonces, so this floor bounds the work at about 65k nonces a
# block; a lower target could keep ``compacts run`` mining for years.
MIN_TARGET = 1 << 240


def read_network_config(path: str) -> tuple[NetworkConfig, dict[str, list[str]]]:
    """Returns the config plus the optional per-principal role map."""
    data = _load_json(path, "network config")
    try:
        principals = tuple((p["id"], p["secret"]) for p in data["principals"])
        peers = data["peers"]
        config = NetworkConfig(
            principals=principals,
            peers=tuple(peers),
            target=int(data["target"], 16),
            gossip_seed=data["gossip_seed"],
            max_rounds=data["max_rounds"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad network config: {exc}") from exc
    roles = data.get("roles", {})
    _require(
        all(_is_text(x) for pair in principals for x in pair)
        and len(config.roster) == len(principals) and bool(peers) and _is_text_list(peers)
        and len(set(peers)) == len(peers) and config.target >= MIN_TARGET
        and type(config.gossip_seed) is int and type(config.max_rounds) is int
        and isinstance(roles, dict) and all(map(_is_text_list, roles.values())),
        "bad network config: principals, peers (at least one) and role lists must be text "
        f"with unique ids, the target at least {MIN_TARGET:#x}, gossip_seed and max_rounds "
        "integers and not booleans",
    )
    return config, {pid: list(role_list) for pid, role_list in roles.items()}


# --- reports ----------------------------------------------------------------


def _position_json(pos: Optional[Position]) -> Optional[dict]:
    return None if pos is None else pos._asdict()


def instance_to_json(instance: NormInstance) -> dict:
    return {
        "norm_id": instance.norm_id,
        "bindings": dict(instance.key_bindings),
        "state": instance.state.value,
        "created_at": _position_json(instance.created_at),
        "detached_at": _position_json(instance.detached_at),
        "closed_at": _position_json(instance.closed_at),
        "violating_event": instance.violating_event,
    }


def fact_to_json(fact: DerivedFact) -> dict:
    return {
        "name": fact.name,
        "bindings": dict(fact.bindings),
        "witness": _position_json(fact.witness),
    }


def trust_to_json(score: TrustScore) -> dict:
    return {
        "principal": score.principal,
        "norm_id": score.norm_id,
        "satisfied": score.satisfied,
        "violated": score.violated,
        "score": round(score.score, 6),
    }


def build_report(
    state: EvalState,
    chain: Chain,
    trust_rows: list[TrustScore],
    network: Optional[NetworkResult] = None,
) -> dict:
    report = {
        "compact": state.spec.name,
        "chain_tip": chain.tip_digest().hex(),
        "instances": [instance_to_json(i) for i in state.instances_in_order()],
        "facts": [fact_to_json(f) for f in state.facts_in_order()],
        "trust": [trust_to_json(t) for t in trust_rows],
    }
    if network is not None:
        report["network"] = {
            "converged": network.converged,
            "rounds_used": network.rounds_used,
        }
    return report


def write_report(report: dict, path: str) -> None:
    _write_indented(report, path)


def _is_trust_row(row) -> bool:
    """A row of the types and bounds docs/report-schema.json gives: to Python
    a bool is an int, and a score lies in [0, 1]."""
    return (
        isinstance(row, dict)
        and _is_text(row.get("principal"))
        and _is_text(row.get("norm_id"))
        and all(type(row.get(count)) is int and row[count] >= 0 for count in ("satisfied", "violated"))
        and type(row.get("score")) in (int, float)
        and 0 <= row["score"] <= 1
    )


def read_report(path: str) -> dict:
    data = _load_json(path, "report")
    _require(isinstance(data, dict) and "instances" in data, "not an evaluation report")
    trust = data.get("trust", [])
    _require(
        isinstance(trust, list) and all(map(_is_trust_row, trust)),
        "report: each trust row needs text principal and norm_id, non-negative integer "
        "satisfied and violated, and a numeric score in [0, 1]",
    )
    return data
