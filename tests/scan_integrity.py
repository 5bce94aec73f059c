"""Reference admission checks: the rules re-derived on every call.

scan_check_integrity is how compacts.validator.check_integrity answered
admission before it kept a LedgerIndex. It rescans every earlier event for
each check, so it is too slow for the network run; tests compare the index's
verdicts with it. scan_validate_event_schema is how validate_event_schema
answered before the rule set compiled a plan per event type: it looks up the
schema's names and scans every channel on each call. Tests hold the plan's
error lists equal to it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from compacts.ledger import Event, Scalar
from compacts.validator import AdmissionError, Channel, IntegrityRuleSet, kind_of


def _channels_carrying(rules: IntegrityRuleSet, event_type: str) -> tuple[Channel, ...]:
    return tuple(c for c in rules.channels if event_type in c.carries)


def _on_channel(principal: str, channel: Channel, roles_of) -> bool:
    if principal in channel.members:
        return True
    held = roles_of(principal) if roles_of is not None else ()
    return any(role in channel.members for role in held)


def scan_validate_event_schema(
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
    carrying = _channels_carrying(rules, event.event_type)
    if not any(_on_channel(event.emitter, c, roles_of) for c in carrying):
        errors.append(AdmissionError("EmitterNotOnChannel", event.emitter))
    return errors


def scan_check_integrity(
    event: Event,
    ledger_view: Sequence[Event],
    rules: IntegrityRuleSet,
) -> list[AdmissionError]:
    """Key uniqueness and in-causality of one event against the events so far."""
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
        if (param.name, param.kind, value) not in bound:
            violations.append(
                AdmissionError("UnboundInParameter", f"{param.name}={value!r}")
            )
    return violations


def _bound_pairs(
    ledger_view: Iterable[Event], rules: IntegrityRuleSet
) -> set[tuple[str, str, Scalar]]:
    """(name, kind, value) introduced as key-or-out bindings so far: an in
    parameter refers only to a binding of its own kind."""
    pairs: set[tuple[str, str, Scalar]] = set()
    for earlier in ledger_view:
        schema = rules.schema_for(earlier.event_type)
        if schema is None:
            continue
        attrs = earlier.attribute_map
        for param in schema.parameters:
            if param.adornment in ("key", "out") and param.name in attrs:
                pairs.add((param.name, param.kind, attrs[param.name]))
    return pairs
