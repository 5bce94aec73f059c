"""Static checks on parsed compacts.

check_well_formedness enforces the declaration discipline that keeps
evaluation well-defined: every reference resolves, the create condition binds
the instance key, deadlines are positive, fact references use bindable names,
and a pattern fills each attribute with a term of its kind.
check_observability reports, per norm and concerned role, every event type
the role cannot see on any of its channels; an empty report means each party
can compute the norm's state from information it can observe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from ..validator import IntegrityRuleSet, kind_of
from . import ast


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
    from ..governance import ruleset_from_spec  # governance imports lang

    rules = ruleset_from_spec(spec)  # admission's event types: the declared, then the built-ins
    diags: list[Diagnostic] = []
    fact_projections: dict[str, set[str]] = {}
    for rule in spec.counts_as:
        fact_projections.setdefault(rule.fact, set()).update(a for a, _ in rule.projection)
    kinds_of = _attribute_kinds(spec, rules)

    # declaration-level checks
    for event_type in _repeated(schema.event_type for schema in spec.schemas):
        diags.append(_err(spec.pos, "duplicate-schema", f"event type {event_type} declared twice"))
    for schema in rules.schemas:
        if not schema.by_adornment("key"):
            diags.append(
                _err(spec.pos, "no-key-parameter", f"schema {schema.event_type} has no key parameter")
            )
        for name in _repeated(schema.names()):
            diags.append(
                _err(spec.pos, "duplicate-parameter",
                     f"schema {schema.event_type} repeats parameter {name}")
            )
        if schema.event_type in fact_projections:
            diags.append(
                _err(spec.pos, "fact-shadows-event",
                     f"counts-as fact {schema.event_type} shadows an event type")
            )

    carried = {t for channel in rules.channels for t in channel.carries}
    for channel in rules.channels:
        for event_type in channel.carries:
            if rules.schema_for(event_type) is None:
                diags.append(
                    _err(spec.pos, "unknown-event-type",
                         f"channel {channel.name} carries undeclared type {event_type}")
                )
    for schema in rules.schemas:
        if schema.event_type not in carried:
            diags.append(
                _err(spec.pos, "event-type-not-carried",
                     f"event type {schema.event_type} is carried by no channel")
            )

    for norm_id in _repeated(norm.id for norm in spec.norms):
        diags.append(_err(spec.pos, "duplicate-norm-id", f"norm id {norm_id} declared twice"))

    for rule in spec.counts_as:
        diags.extend(_check_pattern(spec, rules, rule.source, fact_projections, rule.pos))
        # a fact attribute holds the kind its first rule gives it
        projected = tuple(ast.Constraint(a, ast.Variable(v)) for a, v in rule.projection)
        patterns = [rule.source, ast.FactPattern(rule.fact, projected)]
        diags.extend(_check_kinds(kinds_of, patterns, f"counts-as {rule.fact}: ", rule.pos)[0])
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

    for norm in spec.norms:
        diags.extend(_check_norm(spec, rules, norm, fact_projections, kinds_of))
    return diags


def _check_norm(
    spec: ast.CompactSpec,
    rules: IntegrityRuleSet,
    norm: ast.NormDecl,
    fact_projections: dict[str, set[str]],
    kinds_of,
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for clause in (norm.subject, norm.object):
        if clause.role not in spec.roles:
            diags.append(_err(norm.pos, "unknown-role", f"norm {norm.id}: role {clause.role} not declared"))

    for name, cond in norm.clauses():
        for pattern in ast.patterns_of(cond):
            diags.extend(_check_pattern(spec, rules, pattern, fact_projections, norm.pos, norm_id=norm.id))
        for node in ast.walk(cond):
            if isinstance(node, ast.Before):
                for side in (node.left, node.right):
                    if not isinstance(side, ast.PatternLike):
                        diags.append(
                            _err(norm.pos, "before-operand-not-pattern",
                                 f"norm {norm.id}: 'before' in {name} must compare patterns")
                        )
    patterns = [pattern for _, cond in norm.clauses() for pattern in ast.patterns_of(cond)]
    diags.extend(_check_kinds(kinds_of, patterns, f"norm {norm.id}: ", norm.pos)[0])

    # instance key: all create alternatives bind the same variables,
    # covering the subject/object variables
    alternatives = ast.or_alternatives(norm.create)
    key_vars = ast.variables_of(alternatives[0])
    for alt in alternatives[1:]:
        if ast.variables_of(alt) != key_vars:
            diags.append(
                _err(norm.pos, "create-bindings-vary",
                     f"norm {norm.id}: create alternatives bind different variables")
            )
    for clause in (norm.subject, norm.object):
        if clause.variable is not None and clause.variable not in key_vars:
            diags.append(
                _err(norm.pos, "unbound-variable",
                     f"norm {norm.id}: {clause.variable} not bound by create")
            )

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
                         f"norm {norm.id}: variable {var} in {name} is bound neither by create nor locally")
                )

    if norm.kind == ast.COMMITMENT:
        if norm.deadline_blocks is not None and norm.deadline_blocks <= 0:
            diags.append(
                _err(norm.pos, "nonpositive-deadline", f"norm {norm.id}: deadline must be positive")
            )
        if norm.expiry_blocks is not None and norm.expiry_blocks <= 0:
            diags.append(
                _err(norm.pos, "nonpositive-expiry", f"norm {norm.id}: expiry must be positive")
            )
    else:
        if norm.exemption is not None and norm.exemption_guard != norm.forbids:
            diags.append(
                _err(norm.pos, "exemption-guard-mismatch",
                     f"norm {norm.id}: the pattern after 'before' must restate the forbidden pattern")
            )
    return diags


def _check_pattern(
    spec: ast.CompactSpec,
    rules: IntegrityRuleSet,
    pattern: ast.Condition,
    fact_projections: dict[str, set[str]],
    pos: ast.Pos,
    norm_id: Optional[str] = None,
) -> list[Diagnostic]:
    """The pattern's head must be declared, and so must each attribute it
    constrains; `declared` is what the head declares, None if nothing."""
    where = f"norm {norm_id}: " if norm_id else ""
    at = pattern.pos if pattern.pos != (0, 0) else pos
    if isinstance(pattern, ast.EventPattern):
        schema = rules.schema_for(pattern.event_type)
        declared = None if schema is None else set(schema.names())
        unknown_head = ("unknown-event-type", f"event type {pattern.event_type} not declared")
        unknown_attribute = ("unknown-attribute", f"{pattern.event_type} has no attribute")
    elif isinstance(pattern, ast.FactPattern):
        declared = fact_projections.get(pattern.fact)
        unknown_head = ("unknown-fact", f"fact {pattern.fact} has no counts-as rule")
        unknown_attribute = ("unknown-fact-binding", f"fact {pattern.fact} carries no binding")
    elif isinstance(pattern, ast.NormStateFactPattern):
        target = spec.norm(pattern.norm_id)
        declared = None if target is None else set(target.create_variables())
        unknown_head = ("unknown-norm-id", f"norm {pattern.norm_id} not declared")
        unknown_attribute = ("unknown-fact-binding", f"{pattern.norm_id} instances carry no binding")
    else:
        return []
    if declared is None:
        return [_err(at, unknown_head[0], where + unknown_head[1])]
    code, message = unknown_attribute
    return [
        _err(at, code, f"{where}{message} {constraint.attribute}")
        for constraint in pattern.constraints
        if constraint.attribute not in declared
    ]


def _attribute_kinds(spec: ast.CompactSpec, rules: IntegrityRuleSet):
    """A function from a pattern to the kind of each attribute it may
    constrain: an event type's parameter kinds; for a counts-as fact, the kind
    of the source parameter the attribute's variable fills (the first rule
    of the fact decides); for a norm-state pattern, the kind the norm's create
    clause gives the variable."""
    facts: dict[str, dict[str, str]] = {}
    norms: dict[str, dict[str, str]] = {}

    def kinds_of(pattern) -> dict[str, str]:
        if isinstance(pattern, ast.EventPattern):
            schema = rules.schema_for(pattern.event_type)
            return {} if schema is None else {p.name: p.kind for p in schema.parameters}
        if isinstance(pattern, ast.FactPattern):
            return facts.get(pattern.fact, {})
        if pattern.norm_id not in norms:
            norms[pattern.norm_id] = {}  # a cycle of state references adds no kind
            norm = spec.norm(pattern.norm_id)
            if norm is not None:
                norms[pattern.norm_id] = _check_kinds(kinds_of, ast.patterns_of(norm.create))[1]
        return norms[pattern.norm_id]

    for rule in spec.counts_as:
        filled = _check_kinds(kinds_of, [rule.source])[1]
        projected = facts.setdefault(rule.fact, {})
        for attribute, variable in rule.projection:
            if variable in filled:
                projected.setdefault(attribute, filled[variable])
    return kinds_of


def _check_kinds(
    kinds_of, patterns: Iterable[ast.Condition], where: str = "", pos: ast.Pos = (0, 0)
) -> tuple[list[Diagnostic], dict[str, str]]:
    """Each literal in a pattern must be of its attribute's kind, and each
    variable must fill attributes of one kind across the patterns: the
    matcher compares values as Python does, so true would match 1. Returns
    the diagnostics and each variable's kind, that of the first attribute it
    fills."""
    diags: list[Diagnostic] = []
    kinds: dict[str, str] = {}
    for pattern in patterns:
        declared = kinds_of(pattern)
        at = pattern.pos if pattern.pos != (0, 0) else pos
        for constraint in pattern.constraints:
            kind, term = declared.get(constraint.attribute), constraint.term
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


def _repeated(names: Iterable[str]) -> list[str]:
    """Each name that occurs more than once, once, in source order."""
    counts = Counter(names)
    return [name for name in counts if counts[name] > 1]


# --- observability -------------------------------------------------------


@dataclass(frozen=True)
class ObservabilityGap:
    norm_id: str
    role: str
    event_type: str


def _norm_event_types(spec: ast.CompactSpec, norm: ast.NormDecl, seen: set[str]) -> set[str]:
    """Event types a party must see to compute the norm's state.

    Derived facts trace back to their sources: counts-as facts to the source
    event types of their rules, norm-state facts to the referenced norm's
    event types (transitively).
    """
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


def check_observability(spec: ast.CompactSpec) -> list[ObservabilityGap]:
    """Event types each concerned role cannot observe, per norm.

    A role observes an event type when some channel carrying the type lists
    the role (or, for a principal context, lists the principal directly).
    The built-in governance types ride a channel open to every role.
    """
    from ..governance import ruleset_from_spec  # governance imports lang

    channels = ruleset_from_spec(spec).channels
    gaps: list[ObservabilityGap] = []
    for norm in spec.norms:
        needed = sorted(_norm_event_types(spec, norm, set()))
        parties = [norm.subject.role, norm.object.role]
        context = norm.context if norm.context is not None else spec.context
        if context in spec.roles:
            # a principal context resolves to channels only at runtime,
            # through the role map; nothing to check statically
            parties.append(context)
        for party in dict.fromkeys(parties):
            for event_type in needed:
                visible = any(
                    event_type in channel.carries and party in channel.members
                    for channel in channels
                )
                if not visible:
                    gaps.append(ObservabilityGap(norm.id, party, event_type))
    return gaps
