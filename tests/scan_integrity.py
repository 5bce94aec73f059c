"""Reference check_integrity: the rules as a scan of the whole ledger view.

This is how compacts.validator.check_integrity answered admission before it
kept a LedgerIndex. It rescans every earlier event for each check, so it is
too slow for the network run; tests compare the index's verdicts with it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from compacts.ledger import Event, Scalar
from compacts.validator import AdmissionError, IntegrityRuleSet


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
