"""Admission control: schema and information-integrity checks on events.

This is the gate events must clear before a miner may put them in a block.
It never creates events; its only outputs are verdicts. Parameters carry an
adornment: ``key`` parameters identify the occurrence, ``out`` parameters are
values the event introduces, ``in`` parameters must refer to values some
earlier event already introduced (as a key or out binding of the same
parameter name).

At its first admission a rule set compiles each declared event type into a
plan it keeps: the (name, kind) pairs of its parameters, all and by adornment,
and the principals and roles of the channels that carry it. A passing event
costs a few set lookups; only a failing one walks its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

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
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)  # a built-in has none

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
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


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

    @cached_property
    def _plans(self) -> dict[str, _Plan]:
        """Admission's plan of each declared event type, built on first use."""
        return {t: _Plan.of(schema, self.channels) for t, schema in self._schema_by_type.items()}


class _Plan(NamedTuple):
    """What admission reads of one declared event type."""

    params: tuple[tuple[str, str], ...]  # (name, kind), in declared order
    shape: Optional[tuple[tuple[str, str], ...]]  # params in Event.make order; None if a name repeats
    declared: frozenset[str]
    keys: tuple[str, ...]
    outs: tuple[str, ...]
    binds: tuple[tuple[str, str], ...]  # (name, kind) of every parameter not adorned in
    ins: tuple[tuple[str, str], ...]
    members: frozenset[str]  # principals and roles of the channels that carry the type

    @staticmethod
    def of(schema: SchemaDecl, channels: tuple[Channel, ...]) -> "_Plan":
        params = tuple((p.name, p.kind) for p in schema.parameters)
        declared = frozenset(schema.names())
        return _Plan(
            params, tuple(sorted(params)) if len(declared) == len(params) else None, declared,
            tuple(p.name for p in schema.by_adornment("key")),
            tuple(p.name for p in schema.by_adornment("out")),
            tuple((p.name, p.kind) for p in schema.parameters if p.adornment != "in"),
            tuple((p.name, p.kind) for p in schema.by_adornment("in")),
            frozenset(m for c in channels if schema.event_type in c.carries for m in c.members),
        )


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


def validate_event_schema(
    event: Event,
    rules: IntegrityRuleSet,
    roles_of=None,
) -> list[AdmissionError]:
    """Check an event's shape against its declared schema and channels.

    Empty list means ok. ``roles_of`` maps a principal id to the roles it
    holds, so channels may name roles instead of principals.
    """
    plan = rules._plans.get(event.event_type)
    if plan is None:
        return [AdmissionError("UnknownEventType", event.event_type)]
    on_channel = event.emitter in plan.members or (
        roles_of is not None and not plan.members.isdisjoint(roles_of(event.emitter))
    )
    if on_channel and plan.shape == tuple([(n, _KINDS.get(type(v))) for n, v in event.attributes]):
        return []
    errors: list[AdmissionError] = []
    supplied = event.attribute_map
    for name, kind in plan.params:
        if name not in supplied:
            errors.append(AdmissionError("MissingAttribute", name))
        elif kind_of(supplied[name]) != kind:
            errors.append(AdmissionError("KindMismatch", name))
    errors += [AdmissionError("ExtraAttribute", name) for name in supplied if name not in plan.declared]
    if not on_channel:
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
        plan = self.rules._plans.get(event.event_type) if self.rules is not None else None
        if plan is None:
            return
        attrs = event.attribute_map
        for name, kind in plan.binds:
            if name in attrs:
                self.bound.add((name, kind, attrs[name]))
        key = (event.event_type, tuple(map(attrs.get, plan.keys)))
        self.outs[key] = self.outs.get(key, frozenset()) | {tuple(map(attrs.get, plan.outs))}


def check_integrity(event: Event, index: LedgerIndex) -> list[AdmissionError]:
    """Information-level integrity of one event against the ledger so far.

    (a) key uniqueness: no earlier event of the same type may agree on all
    key parameters yet differ on any out parameter; (b) in-causality: every
    in-adorned (name, kind, value) must already occur as a key-or-out binding
    of some earlier event. Assumes validate_event_schema passed. The ledger
    so far is given as its LedgerIndex, whose rules are the ones checked.
    """
    plan = index.rules._plans.get(event.event_type)
    if plan is None:
        return [AdmissionError("UnknownEventType", event.event_type)]
    violations: list[AdmissionError] = []
    attrs = event.attribute_map

    keys = tuple(map(attrs.get, plan.keys))
    earlier = index.outs.get((event.event_type, keys))
    if earlier and (len(earlier) > 1 or tuple(map(attrs.get, plan.outs)) not in earlier):
        key_repr = ", ".join(f"{name}={value!r}" for name, value in zip(plan.keys, keys))
        violations.append(AdmissionError("KeyConflict", f"{event.event_type}[{key_repr}]"))

    for name, kind in plan.ins:
        value = attrs.get(name)
        if (name, kind, value) not in index.bound:
            violations.append(AdmissionError("UnboundInParameter", f"{name}={value!r}"))
    return violations
