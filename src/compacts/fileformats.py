"""External file formats: chain snapshots, scenarios, network configs, reports.

Chain snapshot: JSON {"blocks": [{"header": {...}, "events": [...]}]} with
digests as lowercase hex. Scenario: JSON Lines, one submission per line.
Network config: JSON with the NetworkConfig fields (target as hex) plus an
optional "roles" map for the organizational context. Evaluation report: one
JSON document with chain tip, instance table, derived facts and trust rows in
stable order; docs/report-schema.json is the schema it validates against.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .evaluator import EvalState, NormInstance
from .ledger import Block, BlockHeader, Chain, Event, Position
from .matching import DerivedFact
from .network import NetworkConfig, NetworkResult, Submission
from .trust import TrustScore


class DataFormatError(Exception):
    """A file failed to parse against its documented format."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataFormatError(message)


def _is_u64(value) -> bool:
    return isinstance(value, int) and 0 <= value < 2**64


_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_text(value) -> bool:
    """A string UTF-8 can encode: JSON admits lone surrogates, which it cannot."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def _is_text_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_text, value))


def _check_encodable(texts, logical_ts, attributes, where: str) -> None:
    """Reject values the canonical serialization cannot encode: the text
    fields must be UTF-8 strings, logical_ts an unsigned and an integer
    attribute a signed 64-bit integer."""
    _require(all(map(_is_text, texts)), f"{where}: {texts!r} must all be text")
    _require(_is_u64(logical_ts), f"{where}: logical_ts {logical_ts!r} is not in [0, 2**64)")
    for name, value in attributes:
        encodable = _is_text(value) or (isinstance(value, int) and -(2**63) <= value < 2**63)
        _require(
            _is_text(name) and encodable,
            f"{where}: attribute {name!r}={value!r} is not text, boolean or i64",
        )


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
    texts = (event.event_id, event.event_type, event.emitter)
    _check_encodable(texts, event.logical_ts, event.attributes, "bad event record")
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
        blocks.append(Block(header=header, events=tuple(map(event_from_json, events))))
    _require(bool(blocks), "chain snapshot has no blocks")
    return Chain(blocks=tuple(blocks))


def write_chain(chain: Chain, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chain_to_json(chain), handle, indent=2)
        handle.write("\n")


def read_chain(path: str) -> Chain:
    return chain_from_json(_load_json(path, "chain snapshot"))


# --- scenarios --------------------------------------------------------------


def read_scenario(path: str) -> list[Submission]:
    submissions = []
    lines = _read_utf8(path, "scenario").split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataFormatError(f"{where}: not valid JSON: {exc}") from exc
        try:
            submission = Submission.make(
                round=data["round"],
                event_type=data["event_type"],
                attributes=data.get("attributes", {}),
                emitter=data["emitter"],
                logical_ts=data.get("logical_ts", data["round"]),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise DataFormatError(f"{where}: bad submission: {exc}") from exc
        round_ok = type(submission.round) is int and submission.round >= 0
        _require(round_ok, f"{where}: round must be a non-negative integer")
        texts = (submission.event_type, submission.emitter)
        _check_encodable(texts, submission.logical_ts, submission.attributes, where)
        submissions.append(submission)
    return submissions


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
        "facts": [fact_to_json(f) for f in state.facts],
        "trust": [trust_to_json(t) for t in trust_rows],
    }
    if network is not None:
        report["network"] = {
            "converged": network.converged,
            "rounds_used": network.rounds_used,
        }
    return report


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


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
