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
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
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
        return self._adorned.get(adornment, ())

    @cached_property
    def _adorned(self) -> dict[str, tuple[Parameter, ...]]:
        return {a: tuple(p for p in self.parameters if p.adornment == a) for a in ADORNMENTS}


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
        return self._schema_by_type.get(event_type)

    @cached_property
    def _schema_by_type(self) -> dict[str, SchemaDecl]:
        by_type: dict[str, SchemaDecl] = {}
        for schema in self.schemas:
            by_type.setdefault(schema.event_type, schema)  # the first declaration wins
        return by_type

    def channels_carrying(self, event_type: str) -> tuple[Channel, ...]:
        return tuple(c for c in self.channels if event_type in c.carries)


@dataclass(frozen=True)
class AdmissionError:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}({self.detail})"


_KINDS = {bool: "bool", int: "int", str: "text"}


def kind_of(value: Scalar) -> Optional[str]:
    """A scalar's kind, by its exact type: a bool is not an int."""
    return _KINDS.get(type(value))


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
        elif kind_of(supplied[param.name]) != param.kind:
            errors.append(AdmissionError("KindMismatch", param.name))
    declared = set(schema.names())
    for name in supplied:
        if name not in declared:
            errors.append(AdmissionError("ExtraAttribute", name))
    carrying = rules.channels_carrying(event.event_type)
    if not any(_on_channel(event.emitter, c, roles_of) for c in carrying):
        errors.append(AdmissionError("EmitterNotOnChannel", event.emitter))
    return errors


class LedgerIndex:
    """Admission state of a ledger prefix, kept as lookups.

    ``event_ids`` holds every event id. ``bound`` holds every (name, kind,
    value) an event bound as a key or out parameter: the values an in
    parameter may refer to. The parameter's kind keeps bindings of different
    kinds apart (to Python, True == 1); admission has already held each value
    to its parameter's kind. ``outs`` maps (event type, key values) to the
    set of out-value tuples of the events with those keys. An index belongs
    to one rule set; with ``rules`` None it tracks event ids only.
    """

    __slots__ = ("rules", "event_ids", "bound", "outs")

    def __init__(self, rules: Optional[IntegrityRuleSet], events: Iterable[Event] = ()):
        self.rules = rules
        self.event_ids: set[str] = set()
        self.bound: set[tuple[str, str, Scalar]] = set()
        self.outs: dict[tuple[str, tuple], frozenset[tuple]] = {}
        for event in events:
            self.add(event)

    def __len__(self) -> int:
        return len(self.event_ids)

    def copy(self) -> "LedgerIndex":
        other = LedgerIndex(self.rules)
        other.event_ids = self.event_ids.copy()
        other.bound = self.bound.copy()
        other.outs = self.outs.copy()  # the values are immutable
        return other

    def add(self, event: Event) -> None:
        self.event_ids.add(event.event_id)
        schema = self.rules.schema_for(event.event_type) if self.rules is not None else None
        if schema is None:
            return
        attrs = event.attribute_map
        for param in schema.parameters:
            if param.adornment != "in" and param.name in attrs:
                self.bound.add((param.name, param.kind, attrs[param.name]))
        key, outs = _key_and_outs(event.event_type, schema, attrs)
        self.outs[key] = self.outs.get(key, frozenset()) | {outs}


def _key_and_outs(event_type: str, schema: SchemaDecl, attrs: dict) -> tuple[tuple, tuple]:
    """(event type, key values) and the out values of one event."""
    keys = tuple(attrs.get(p.name) for p in schema.by_adornment("key"))
    return (event_type, keys), tuple(attrs.get(p.name) for p in schema.by_adornment("out"))


def check_integrity(event: Event, index: LedgerIndex) -> list[AdmissionError]:
    """Information-level integrity of one event against the ledger so far.

    (a) key uniqueness: no earlier event of the same type may agree on all
    key parameters yet differ on any out parameter; (b) in-causality: every
    in-adorned (name, kind, value) must already occur as a key-or-out binding
    of some earlier event. Assumes validate_event_schema passed. The ledger
    so far is given as its LedgerIndex, whose rules are the ones checked.
    """
    schema = index.rules.schema_for(event.event_type)
    if schema is None:
        return [AdmissionError("UnknownEventType", event.event_type)]
    violations: list[AdmissionError] = []
    attrs = event.attribute_map

    key, outs = _key_and_outs(event.event_type, schema, attrs)
    earlier = index.outs.get(key)
    if earlier and (len(earlier) > 1 or outs not in earlier):
        key_repr = ", ".join(f"{k.name}={attrs.get(k.name)!r}" for k in schema.by_adornment("key"))
        violations.append(AdmissionError("KeyConflict", f"{event.event_type}[{key_repr}]"))

    for param in schema.by_adornment("in"):
        value = attrs.get(param.name)
        if (param.name, param.kind, value) not in index.bound:
            violations.append(
                AdmissionError("UnboundInParameter", f"{param.name}={value!r}")
            )
    return violations
