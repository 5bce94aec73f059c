"""Organizational contexts, counts-as rules and governance plumbing.

The organizational context is a principal like any other: it holds roles,
appears as a norm's subject or object, and adjudicates through ordinary
events. Counts-as rules turn an authorized member's assertion into an
institutional fact; norm violations surface as derived facts that activate
the context's governance norms. Derived facts are never written to the
chain: every party recomputes them deterministically.

Complaint, Sanction and Exoneration schemas are built in (see
docs/governance.md) and auto-registered for any compact that does not
declare its own versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .lang import ast
from .ledger import Event, Position
from .matching import DerivedFact, freeze_bindings, match_event_pattern
from .validator import Channel, IntegrityRuleSet, Parameter, SchemaDecl


class UnrosteredEmitter(Exception):
    """The emitter is not an approved principal of the network."""


@dataclass(frozen=True)
class Organization:
    """A context principal; members maps each principal, in order, to its sorted roles."""

    id: str
    members: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @staticmethod
    def make(org_id: str, members: Mapping[str, Sequence[str]]) -> "Organization":
        roles = {pid: tuple(sorted(members[pid])) for pid in sorted(members)}
        return Organization(id=org_id, members=roles)

    def roles_of(self, principal: str) -> tuple[str, ...]:
        return self.members.get(principal, ())

    def has_role(self, principal: str, role: str) -> bool:
        return role in self.roles_of(principal)

    def holders(self, role: str) -> tuple[str, ...]:
        return tuple(pid for pid, roles in self.members.items() if role in roles)


EMPTY_ORGANIZATION = Organization(id="")


BUILTIN_GOVERNANCE_SCHEMAS: tuple[SchemaDecl, ...] = (
    SchemaDecl(
        event_type="Complaint",
        parameters=(Parameter("case", "text", "key"),),
    ),
    SchemaDecl(
        event_type="Sanction",
        parameters=(Parameter("case", "text", "key"), Parameter("against", "text", "out")),
    ),
    SchemaDecl(
        event_type="Exoneration",
        parameters=(Parameter("case", "text", "key"), Parameter("against", "text", "out")),
    ),
)


def ruleset_from_spec(spec: ast.CompactSpec) -> IntegrityRuleSet:
    """Build the admission rule set of a compact.

    Built-in governance schemas are added only for event types the compact
    does not declare itself; they ride a synthetic "governance" channel open
    to every declared role and the context principal.
    """
    declared = {s.event_type for s in spec.schemas}
    extra = tuple(s for s in BUILTIN_GOVERNANCE_SCHEMAS if s.event_type not in declared)
    channels = spec.channels
    if extra:
        channels = channels + (
            Channel(
                name="governance",
                members=tuple(spec.roles) + (spec.context,),
                carries=tuple(s.event_type for s in extra),
            ),
        )
    return IntegrityRuleSet(schemas=spec.schemas + extra, channels=channels)


def counts_as_facts_for_event(
    pos: Position,
    event: Event,
    rules: Sequence[ast.CountsAsRule],
    org: Organization,
) -> list[DerivedFact]:
    """Facts one event establishes: source pattern matches and the emitter
    holds the required role in the context."""
    facts: list[DerivedFact] = []
    for rule in rules:
        extended = match_event_pattern(rule.source, event, {})
        if extended is None:
            continue
        if not org.has_role(event.emitter, rule.required_role):
            continue
        projected = {attr: extended[var] for attr, var in rule.projection if var in extended}
        if len(projected) != len(rule.projection):
            continue
        facts.append(DerivedFact(rule.fact, freeze_bindings(projected), pos))
    return facts

