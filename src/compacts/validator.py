"""Admission control: schema and information-integrity checks on events.

This is the gate events must clear before a miner may put them in a block.
It never creates events; its only outputs are verdicts. Parameters carry an
adornment: ``key`` parameters identify the occurrence, ``out`` parameters are
values the event introduces, ``in`` parameters must refer to values some
earlier event already introduced (as a key or out binding of the same
parameter name).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .ledger import Event, Scalar

ADORNMENTS = ("key", "out", "in")


@dataclass(frozen=True)
class Parameter:
    name: str
    kind: str  # text | int | bool
    adornment: str  # key | out | in


@dataclass(frozen=True)
class SchemaDecl:
    event_type: str
    parameters: tuple[Parameter, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def by_adornment(self, adornment: str) -> tuple[Parameter, ...]:
        return tuple(p for p in self.parameters if p.adornment == adornment)


@dataclass(frozen=True)
class Channel:
    name: str
    members: tuple[str, ...]  # role names or principal ids
    carries: tuple[str, ...]  # event types


@dataclass(frozen=True)
class IntegrityRuleSet:
    schemas: tuple[SchemaDecl, ...]
    channels: tuple[Channel, ...]

    def schema_for(self, event_type: str) -> Optional[SchemaDecl]:
        for schema in self.schemas:
            if schema.event_type == event_type:
                return schema
        return None

    def channels_carrying(self, event_type: str) -> tuple[Channel, ...]:
        return tuple(c for c in self.channels if event_type in c.carries)


@dataclass(frozen=True)
class AdmissionError:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}({self.detail})"


def _kind_matches(value: Scalar, kind: str) -> bool:
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, str)


def _on_channel(principal: str, channel: Channel, roles_of) -> bool:
    if principal in channel.members:
        return True
    held = roles_of(principal) if roles_of is not None else ()
    return any(role in channel.members for role in held)


def validate_event_schema(
    event: Event,
    rules: IntegrityRuleSet,
    roles_of=None,
) -> list[AdmissionError]:
    """Check an event's shape against its declared schema and channels.

    Empty list means ok. ``roles_of`` maps a principal id to the roles it
    holds, so channels may name roles instead of principals.
    """
    schema = rules.schema_for(event.event_type)
    if schema is None:
        return [AdmissionError("UnknownEventType", event.event_type)]
    errors: list[AdmissionError] = []
    supplied = event.attribute_map
    for param in schema.parameters:
        if param.name not in supplied:
            errors.append(AdmissionError("MissingAttribute", param.name))
        elif not _kind_matches(supplied[param.name], param.kind):
            errors.append(AdmissionError("KindMismatch", param.name))
    declared = set(schema.names())
    for name in supplied:
        if name not in declared:
            errors.append(AdmissionError("ExtraAttribute", name))
    carrying = rules.channels_carrying(event.event_type)
    if not any(_on_channel(event.emitter, c, roles_of) for c in carrying):
        errors.append(AdmissionError("EmitterNotOnChannel", event.emitter))
    return errors


def check_integrity(
    event: Event,
    ledger_view: Sequence[Event],
    rules: IntegrityRuleSet,
) -> list[AdmissionError]:
    """Information-level integrity of one event against the ledger so far.

    (a) key uniqueness: no earlier event of the same type may agree on all
    key parameters yet differ on any out parameter; (b) in-causality: every
    in-adorned (name, value) pair must already occur as a key-or-out binding
    of some earlier event. Assumes validate_event_schema passed.
    """
    schema = rules.schema_for(event.event_type)
    if schema is None:
        return [AdmissionError("UnknownEventType", event.event_type)]
    violations: list[AdmissionError] = []
    attrs = event.attribute_map

    keys = schema.by_adornment("key")
    outs = schema.by_adornment("out")
    for earlier in ledger_view:
        if earlier.event_type != event.event_type:
            continue
        earlier_attrs = earlier.attribute_map
        if all(earlier_attrs.get(k.name) == attrs.get(k.name) for k in keys):
            if any(earlier_attrs.get(o.name) != attrs.get(o.name) for o in outs):
                key_repr = ", ".join(f"{k.name}={attrs.get(k.name)!r}" for k in keys)
                violations.append(
                    AdmissionError("KeyConflict", f"{event.event_type}[{key_repr}]")
                )
                break

    bound = _bound_pairs(ledger_view, rules)
    for param in schema.by_adornment("in"):
        value = attrs.get(param.name)
        if (param.name, value) not in bound:
            violations.append(
                AdmissionError("UnboundInParameter", f"{param.name}={value!r}")
            )
    return violations


def _bound_pairs(
    ledger_view: Iterable[Event], rules: IntegrityRuleSet
) -> set[tuple[str, Scalar]]:
    """(name, value) pairs introduced as key-or-out bindings so far."""
    pairs: set[tuple[str, Scalar]] = set()
    for earlier in ledger_view:
        schema = rules.schema_for(earlier.event_type)
        if schema is None:
            continue
        attrs = earlier.attribute_map
        for param in schema.parameters:
            if param.adornment in ("key", "out") and param.name in attrs:
                pairs.add((param.name, attrs[param.name]))
    return pairs
