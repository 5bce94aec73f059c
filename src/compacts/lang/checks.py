"""Static checks on parsed compacts.

check_well_formedness enforces the declaration discipline that keeps
evaluation well-defined: every reference resolves, the create condition binds
the instance key, deadlines are positive, fact references use bindable names,
and a pattern fills each attribute with a term of its kind. A counts-as rule
names each fact attribute once (duplicate-fact-attribute: a repeated one
would never derive its fact), and a `Role: var` clause's variable fills text
parameters (role-variable-kind: a principal is text, so any other kind would
drop the norm's outcomes from trust).
Its last pass warns (unobservable-event-type) of each event type a norm's
party cannot see on any of its channels: without one, each party can compute
the norm's state from information it can observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, TypeVar

from ..validator import IntegrityRuleSet, kind_of
from . import ast

T = TypeVar("T")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # error | warning
    line: int
    col: int
    code: str
    message: str

    def render(self, filename: str = "<compact>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity}: {self.message}"


def _err(pos: ast.Pos, code: str, message: str) -> Diagnostic:
    return Diagnostic("error", pos[0], pos[1], code, message)


def check_well_formedness(spec: ast.CompactSpec) -> list[Diagnostic]:
    """The spec's diagnostics, computed on its first check and kept in its cell."""
    if spec._diagnostics is None:
        object.__setattr__(spec, "_diagnostics", tuple(_diagnose(spec)))
    return list(spec._diagnostics)


def _diagnose(spec: ast.CompactSpec) -> list[Diagnostic]:
    from ..governance import ruleset_from_spec  # governance imports lang

    rules = ruleset_from_spec(spec)  # admission's event types: the declared, then the built-ins
    declared = _Declarations(spec, rules)
    diags: list[Diagnostic] = []

    # declaration-level checks, each at its declaration (a duplicate at its
    # second); a built-in declaration has no position and takes the compact's
    def at(decl) -> ast.Pos:
        return decl.pos if decl.pos != (0, 0) else spec.pos

    for schema in _repeated(spec.schemas, lambda schema: schema.event_type):
        diags.append(_err(at(schema), "duplicate-schema", f"event type {schema.event_type} declared twice"))
    rule_for = {rule.fact: rule for rule in reversed(spec.counts_as)}  # a fact's first rule
    for schema in rules.schemas:
        if not schema.by_adornment("key"):
            diags.append(
                _err(at(schema), "no-key-parameter", f"schema {schema.event_type} has no key parameter")
            )
        for name in _repeated(schema.names()):
            diags.append(
                _err(at(schema), "duplicate-parameter",
                     f"schema {schema.event_type} repeats parameter {name}")
            )
        if schema.event_type in rule_for:
            diags.append(
                _err(rule_for[schema.event_type].pos, "fact-shadows-event",
                     f"counts-as fact {schema.event_type} shadows an event type")
            )

    carried = {t for channel in rules.channels for t in channel.carries}
    for channel in rules.channels:
        for event_type in channel.carries:
            if rules.schema_for(event_type) is None:
                diags.append(
                    _err(at(channel), "unknown-event-type",
                         f"channel {channel.name} carries undeclared type {event_type}")
                )
    for schema in rules.schemas:
        if schema.event_type not in carried:
            diags.append(
                _err(at(schema), "event-type-not-carried",
                     f"event type {schema.event_type} is carried by no channel")
            )

    for norm in _repeated(spec.norms, lambda norm: norm.id):
        diags.append(_err(norm.pos, "duplicate-norm-id", f"norm id {norm.id} declared twice"))

    for rule in spec.counts_as:
        diags.extend(_check_pattern(declared, rule.source, rule.pos))
        # a fact attribute holds the kind its first rule gives it
        projected = tuple(ast.Constraint(a, ast.Variable(v)) for a, v in rule.projection)
        patterns = [rule.source, ast.FactPattern(rule.fact, projected)]
        diags.extend(_check_kinds(declared, patterns, f"counts-as {rule.fact}: ", rule.pos)[0])
        if rule.required_role not in spec.roles:
            diags.append(
                _err(rule.pos, "unknown-role", f"counts-as role {rule.required_role} not declared")
            )
        source_vars = ast.variables_of(rule.source)
        for attr, var in rule.projection:
            if var not in source_vars:
                diags.append(
                    _err(rule.pos, "projection-unbound",
                         f"counts-as {rule.fact} projects {var}, not bound by its source")
                )
        for attr in _repeated(a for a, _ in rule.projection):
            diags.append(
                _err(rule.pos, "duplicate-fact-attribute",
                     f"counts-as {rule.fact} names attribute {attr} twice")
            )

    for norm in spec.norms:
        for clause in (norm.subject, norm.object):
            if clause.role not in spec.roles:
                diags.append(
                    _err(norm.pos, "unknown-role", f"norm {norm.id}: role {clause.role} not declared")
                )
        diags.extend(_check_norm(declared, norm))
    return diags + _unobservable(spec, rules)


def _check_norm(declared, norm: ast.NormDecl) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    where = f"norm {norm.id}: "
    for name, cond in norm.clauses():
        for pattern in ast.patterns_of(cond):
            diags.extend(_check_pattern(declared, pattern, norm.pos, where))
        for node in ast.walk(cond):
            if isinstance(node, ast.Before):
                for side in (node.left, node.right):
                    if not isinstance(side, ast.PatternLike):
                        diags.append(
                            _err(norm.pos, "before-operand-not-pattern",
                                 f"{where}'before' in {name} must compare patterns")
                        )
    patterns = [pattern for _, cond in norm.clauses() for pattern in ast.patterns_of(cond)]
    kind_diags, kinds = _check_kinds(declared, patterns, where, norm.pos)
    diags.extend(kind_diags)

    # instance key: every alternative of create, with 'or' distributed
    # through 'and' and 'before', binds the same variables, covering the
    # subject/object variables
    key_vars, bound_somewhere = ast.bindings(norm.create)
    if key_vars != bound_somewhere:
        diags.append(
            _err(norm.pos, "create-bindings-vary", f"{where}create alternatives bind different variables")
        )
    # a role variable names a principal, and a principal is text: kinds holds
    # the kind of the first attribute each variable fills, create's first
    for clause in (norm.subject, norm.object):
        if clause.variable is not None and clause.variable not in key_vars:
            diags.append(_err(norm.pos, "unbound-variable", f"{where}{clause.variable} not bound by create"))
        elif kinds.get(clause.variable, "text") != "text":
            kind = kinds[clause.variable]
            message = f"role {clause.role} takes {clause.variable}, which fills {kind} parameters"
            diags.append(_err(norm.pos, "role-variable-kind", where + message))

    # a variable in a non-create clause either joins the instance key or is
    # constrained locally; a singleton unknown variable is a likely typo
    for name, cond in norm.clauses():
        if name == "create":
            continue
        occurrences: dict[str, int] = {}
        for pattern in ast.patterns_of(cond):
            for constraint in pattern.constraints:
                if isinstance(constraint.term, ast.Variable):
                    occurrences[constraint.term.name] = occurrences.get(constraint.term.name, 0) + 1
        for var, count in occurrences.items():
            if var not in key_vars and count == 1:
                diags.append(
                    _err(norm.pos, "unbound-variable",
                         f"{where}variable {var} in {name} is bound neither by create nor locally")
                )

    if norm.kind == ast.COMMITMENT:
        if norm.deadline_blocks is not None and norm.deadline_blocks <= 0:
            diags.append(_err(norm.pos, "nonpositive-deadline", f"{where}deadline must be positive"))
        if norm.expiry_blocks is not None and norm.expiry_blocks <= 0:
            diags.append(_err(norm.pos, "nonpositive-expiry", f"{where}expiry must be positive"))
    else:
        if norm.exemption is not None and norm.exemption_guard != norm.forbids:
            diags.append(
                _err(norm.pos, "exemption-guard-mismatch",
                     f"{where}the pattern after 'before' must restate the forbidden pattern")
            )
    return diags


class _Declarations:
    """A function from a pattern to what its head declares: each attribute
    mapped to its kind (None if unknown), or None if the head is undeclared.
    An event type declares its parameters. A counts-as fact declares its
    projected attributes, each of the kind of the source parameter its
    variable fills (the first rule that gives one decides). A norm-state
    pattern declares the norm's create variables, each of the kind the
    create clause gives it; a cycle of state references adds no kind. An
    object, not a closure, so that its tables hold no reference to it and
    go when the check returns."""

    def __init__(self, spec: ast.CompactSpec, rules: IntegrityRuleSet):
        self.spec, self.rules = spec, rules
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


def _check_pattern(declared, pattern: ast.Condition, pos: ast.Pos, where: str = "") -> list[Diagnostic]:
    """The pattern's head must be declared, and so must each attribute it
    constrains."""
    at = pattern.pos if pattern.pos != (0, 0) else pos
    if isinstance(pattern, ast.EventPattern):
        unknown_head = ("unknown-event-type", f"event type {pattern.event_type} not declared")
        unknown_attribute = ("unknown-attribute", f"{pattern.event_type} has no attribute")
    elif isinstance(pattern, ast.FactPattern):
        unknown_head = ("unknown-fact", f"fact {pattern.fact} has no counts-as rule")
        unknown_attribute = ("unknown-fact-binding", f"fact {pattern.fact} carries no binding")
    else:
        unknown_head = ("unknown-norm-id", f"norm {pattern.norm_id} not declared")
        unknown_attribute = ("unknown-fact-binding", f"{pattern.norm_id} instances carry no binding")
    attributes = declared(pattern)
    if attributes is None:
        return [_err(at, unknown_head[0], where + unknown_head[1])]
    code, message = unknown_attribute
    return [
        _err(at, code, f"{where}{message} {constraint.attribute}")
        for constraint in pattern.constraints
        if constraint.attribute not in attributes
    ]


def _check_kinds(
    declared, patterns: Iterable[ast.Condition], where: str = "", pos: ast.Pos = (0, 0)
) -> tuple[list[Diagnostic], dict[str, str]]:
    """Each literal in a pattern must be of its attribute's kind, and each
    variable must fill attributes of one kind across the patterns: the
    matcher compares values as Python does, so true would match 1. Returns
    the diagnostics and each variable's kind, that of the first attribute it
    fills."""
    diags: list[Diagnostic] = []
    kinds: dict[str, str] = {}
    for pattern in patterns:
        attributes = declared(pattern) or {}
        at = pattern.pos if pattern.pos != (0, 0) else pos
        for constraint in pattern.constraints:
            kind, term = attributes.get(constraint.attribute), constraint.term
            if kind is None:
                continue
            if isinstance(term, ast.Literal):
                found = kind_of(term.value)
                if found != kind:
                    message = f"attribute {constraint.attribute} is {kind}, not {found}"
                    diags.append(_err(at, "literal-kind-mismatch", where + message))
            elif kinds.setdefault(term.name, kind) != kind:
                message = f"variable {term.name} fills {kinds[term.name]} and {kind} parameters"
                diags.append(_err(at, "variable-kind-mismatch", where + message))
    return diags, kinds


def _repeated(items: Iterable[T], key: Callable[[T], Hashable] = lambda item: item) -> list[T]:
    """The second occurrence of each key that occurs more than once, in the
    order of the keys' first occurrences."""
    groups: dict[Hashable, list[T]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return [group[1] for group in groups.values() if len(group) > 1]


def _norm_event_types(spec: ast.CompactSpec, norm: ast.NormDecl, seen: set[str]) -> set[str]:
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
                    types.update(_norm_event_types(spec, target, seen))
    return types


def _unobservable(spec: ast.CompactSpec, rules: IntegrityRuleSet) -> list[Diagnostic]:
    """A warning per norm, party and declared event type that no channel open
    to the party carries; an undeclared type already draws its own error. The
    built-in governance types ride a channel open to every role; a principal
    context resolves to channels only at runtime."""
    visible = {(member, t) for channel in rules.channels for member in channel.members for t in channel.carries}
    gaps: list[Diagnostic] = []
    for norm in spec.norms:
        needed = sorted(_norm_event_types(spec, norm, set()))
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
