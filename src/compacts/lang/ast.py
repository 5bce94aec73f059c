"""Syntax tree for the compact language.

A compact bundles roles, event schemas, channels, counts-as rules and norms
(commitments and prohibitions). Conditions are positive-existential patterns
over recorded events and derived facts: no negation exists in the language;
exceptions are expressed through a prohibition's exemption clause.

Node equality ignores source positions so a reparse of pretty-printed text
compares equal to the original tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from ..validator import Channel, SchemaDecl

Pos = tuple[int, int]  # (line, column), 1-based

COMMITMENT = "commitment"
PROHIBITION = "prohibition"
NORM_STATES = ("violated", "satisfied", "detached", "expired")


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Literal:
    value: Union[str, int, bool]


Term = Union[Variable, Literal]


@dataclass(frozen=True)
class Constraint:
    """One ``attribute: term`` entry of a pattern."""

    attribute: str
    term: Term


@dataclass(frozen=True)
class EventPattern:
    event_type: str
    constraints: tuple[Constraint, ...]
    pos: Pos = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class FactPattern:
    """Reference to a counts-as fact (``fact Benign(tumor)``)."""

    fact: str
    constraints: tuple[Constraint, ...]
    pos: Pos = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class NormStateFactPattern:
    """Reference to a norm lifecycle fact (``violated P1(patient)``)."""

    state: str  # one of NORM_STATES
    norm_id: str
    constraints: tuple[Constraint, ...]
    pos: Pos = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class And:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class Or:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class Before:
    """Left witness must occur at a strictly earlier position than right."""

    left: "Condition"
    right: "Condition"


Condition = Union[EventPattern, FactPattern, NormStateFactPattern, And, Or, Before]
PatternLike = (EventPattern, FactPattern, NormStateFactPattern)


def walk(condition: Condition) -> Iterator[Condition]:
    yield condition
    if isinstance(condition, (And, Or, Before)):
        yield from walk(condition.left)
        yield from walk(condition.right)


def patterns_of(condition: Condition) -> Iterator[Condition]:
    for node in walk(condition):
        if isinstance(node, PatternLike):
            yield node


def variables_of(condition: Condition) -> set[str]:
    names: set[str] = set()
    for node in patterns_of(condition):
        for constraint in node.constraints:
            if isinstance(constraint.term, Variable):
                names.add(constraint.term.name)
    return names


def bindings(condition: Condition) -> tuple[set[str], set[str]]:
    """(every, some): the names that every alternative of the condition's
    disjunctive form binds, and the names that some alternative binds. The
    disjunctive form distributes ``or`` through ``and`` and ``before``, so
    an alternative takes one side of each ``or`` it meets."""
    if not isinstance(condition, (And, Or, Before)):
        names = variables_of(condition)
        return names, names
    every_left, some_left = bindings(condition.left)
    every_right, some_right = bindings(condition.right)
    every = every_left & every_right if isinstance(condition, Or) else every_left | every_right
    return every, some_left | some_right


@dataclass(frozen=True)
class RoleClause:
    """``Role`` or ``Role: variable``; the variable names the bound principal."""

    role: str
    variable: Optional[str] = None


@dataclass(frozen=True)
class NormDecl:
    id: str
    kind: str  # commitment | prohibition
    subject: RoleClause
    object: RoleClause
    context: Optional[str]  # role or principal; None = compact context
    create: Condition
    # commitments
    antecedent: Optional[Condition] = None
    consequent: Optional[Condition] = None
    deadline_blocks: Optional[int] = None
    expiry_blocks: Optional[int] = None
    # prohibitions
    forbids: Optional[EventPattern] = None
    exemption: Optional[Condition] = None
    exemption_guard: Optional[EventPattern] = None
    until: Optional[Condition] = None
    pos: Pos = field(default=(0, 0), compare=False, repr=False)

    def create_variables(self) -> tuple[str, ...]:
        """Instance key: the variables that every alternative of the create
        condition binds. Well-formedness requires every alternative to bind
        the same set (see bindings).
        """
        return tuple(sorted(bindings(self.create)[0]))

    def clauses(self) -> Iterator[tuple[str, Condition]]:
        yield "create", self.create
        if self.antecedent is not None:
            yield "antecedent", self.antecedent
        if self.consequent is not None:
            yield "consequent", self.consequent
        if self.forbids is not None:
            yield "forbids", self.forbids
        if self.exemption is not None:
            yield "exemption", self.exemption
        if self.until is not None:
            yield "until", self.until


@dataclass(frozen=True)
class CountsAsRule:
    """An authorized emitter's assertion establishes an institutional fact."""

    fact: str
    projection: tuple[tuple[str, str], ...]  # (fact attribute, source variable)
    source: EventPattern
    required_role: str
    pos: Pos = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class CompactSpec:
    name: str
    context: str  # principal id of the organizational context
    roles: tuple[str, ...]
    schemas: tuple[SchemaDecl, ...]
    channels: tuple[Channel, ...]
    counts_as: tuple[CountsAsRule, ...]
    norms: tuple[NormDecl, ...]
    pos: Pos = field(default=(0, 0), compare=False, repr=False)
    _diagnostics: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def norm(self, norm_id: str) -> Optional[NormDecl]:
        for norm in self.norms:
            if norm.id == norm_id:
                return norm
        return None

    def fact_names(self) -> set[str]:
        return {rule.fact for rule in self.counts_as}
