"""Reference state-reference walks: each norm reference followed by recursion.

ScanDeclarations and scan_unobservable are how compacts.lang.checks followed
`state(norm)` references before one iterative walk did it. ScanDeclarations
resolves a norm-state head by recursing through the create clauses of the
norms it references, a norm entering with its create variables of no kind
before its own references resolve. scan_norm_event_types walks a norm's
references again for every norm, with its own cycle rule: an id already
walked from that norm adds nothing. A chain of references deeper than the
recursion limit raises RecursionError. scan_diagnostics runs the checker with
both in place; tests hold its diagnostics equal to the checker's.
"""

from __future__ import annotations

from typing import Optional
from unittest import mock

from compacts.lang import ast, checks
from compacts.lang.checks import Diagnostic, _check_kinds
from compacts.validator import IntegrityRuleSet


class ScanDeclarations:
    """The checker's pattern declarations, a norm-state head resolved by
    recursion through the create clauses it reaches."""

    def __init__(self, spec: ast.CompactSpec, rules: IntegrityRuleSet):
        self.spec, self.rules = spec, rules
        self.table = None  # scan_unobservable looks norms up in the spec
        self.events: dict[str, Optional[dict[str, str]]] = {}
        self.facts: dict[str, dict[str, Optional[str]]] = {}
        self.norms: dict[str, Optional[dict[str, Optional[str]]]] = {}
        for rule in spec.counts_as:
            filled = _check_kinds(self, [rule.source])[1]
            projected = self.facts.setdefault(rule.fact, {})
            for attribute, variable in rule.projection:
                if projected.get(attribute) is None:
                    projected[attribute] = filled.get(variable)

    def __call__(self, pattern) -> Optional[dict[str, Optional[str]]]:
        if isinstance(pattern, ast.EventPattern):
            if pattern.event_type not in self.events:
                schema = self.rules.schema_for(pattern.event_type)
                kinds = None if schema is None else {p.name: p.kind for p in schema.parameters}
                self.events[pattern.event_type] = kinds
            return self.events[pattern.event_type]
        if isinstance(pattern, ast.FactPattern):
            return self.facts.get(pattern.fact)
        norms = self.norms
        if pattern.norm_id not in norms:
            norm = self.spec.norm(pattern.norm_id)
            norms[pattern.norm_id] = None
            if norm is not None:
                names = norm.create_variables()
                norms[pattern.norm_id] = dict.fromkeys(names)  # what a cycle of references sees
                kinds = _check_kinds(self, ast.patterns_of(norm.create))[1]
                norms[pattern.norm_id] = {name: kinds.get(name) for name in names}
        return norms[pattern.norm_id]


def scan_norm_event_types(spec: ast.CompactSpec, norm: ast.NormDecl, seen: set[str]) -> set[str]:
    """Event types a party must see to compute the norm's state. Derived
    facts trace back to their sources: counts-as facts to their rules' source
    event types, norm-state facts to the referenced norm's (transitively)."""
    if norm.id in seen:
        return set()
    seen.add(norm.id)
    types: set[str] = set()
    for _, cond in norm.clauses():
        for pattern in ast.patterns_of(cond):
            if isinstance(pattern, ast.EventPattern):
                types.add(pattern.event_type)
            elif isinstance(pattern, ast.FactPattern):
                for rule in spec.counts_as:
                    if rule.fact == pattern.fact:
                        types.add(rule.source.event_type)
            elif isinstance(pattern, ast.NormStateFactPattern):
                target = spec.norm(pattern.norm_id)
                if target is not None:
                    types.update(scan_norm_event_types(spec, target, seen))
    return types


def scan_unobservable(spec: ast.CompactSpec, rules: IntegrityRuleSet, table=None) -> list[Diagnostic]:
    """The observability warnings, each norm's event types walked afresh."""
    visible = {(member, t) for channel in rules.channels for member in channel.members for t in channel.carries}
    gaps: list[Diagnostic] = []
    for norm in spec.norms:
        needed = sorted(scan_norm_event_types(spec, norm, set()))
        context = norm.context if norm.context is not None else spec.context
        parties = (norm.subject.role, norm.object.role) + ((context,) if context in spec.roles else ())
        gaps.extend(
            Diagnostic("warning", *norm.pos, "unobservable-event-type",
                       f"norm {norm.id}: role {party} cannot observe {event_type}")
            for party in dict.fromkeys(parties)
            for event_type in needed
            if (party, event_type) not in visible and rules.schema_for(event_type) is not None
        )
    return gaps


def scan_diagnostics(spec: ast.CompactSpec) -> list[Diagnostic]:
    """The checker's diagnostics on spec with the reference walks in place,
    computed afresh: the spec's cell is neither read nor written."""
    with mock.patch.multiple(checks, _Declarations=ScanDeclarations, _unobservable=scan_unobservable):
        return checks._diagnose(spec)
