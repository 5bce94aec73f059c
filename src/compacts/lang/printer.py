"""Canonical formatter for compact specifications.

The output is deterministic: structurally equal trees print byte-identically,
and reparsing the output yields a tree equal to the input. Declarations are
grouped in a fixed order (roles, schemas, channels, counts-as, norms),
preserving declaration order within each group.
"""

from __future__ import annotations

from ..validator import Channel, SchemaDecl
from . import ast

# operator -> (keyword, precedence, precedence its left and its right operand
# print at). 'and' and 'or' group to the left, so a right operand of the same
# operator is parenthesized; the operands of 'before' are patterns or
# parenthesized conditions.
_OPERATORS = {
    ast.Or: ("or", 1, 1, 2),
    ast.And: ("and", 2, 2, 3),
    ast.Before: ("before", 3, 4, 4),
}


def _term(term: ast.Term) -> str:
    if isinstance(term, ast.Variable):
        return term.name
    value = term.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def _constraints(constraints: tuple[ast.Constraint, ...]) -> str:
    parts = []
    for c in constraints:
        if isinstance(c.term, ast.Variable) and c.term.name == c.attribute:
            parts.append(c.attribute)
        else:
            parts.append(f"{c.attribute}: {_term(c.term)}")
    return ", ".join(parts)


def format_pattern(pattern: ast.Condition) -> str:
    if isinstance(pattern, ast.EventPattern):
        return f"{pattern.event_type}({_constraints(pattern.constraints)})"
    if isinstance(pattern, ast.FactPattern):
        return f"fact {pattern.fact}({_constraints(pattern.constraints)})"
    if isinstance(pattern, ast.NormStateFactPattern):
        return f"{pattern.state} {pattern.norm_id}({_constraints(pattern.constraints)})"
    raise TypeError(f"not a pattern: {type(pattern).__name__}")


def format_condition(condition: ast.Condition, parent_level: int = 0) -> str:
    if isinstance(condition, ast.PatternLike):
        return format_pattern(condition)
    word, level, left_level, right_level = _OPERATORS[type(condition)]
    left = format_condition(condition.left, left_level)
    right = format_condition(condition.right, right_level)
    text = f"{left} {word} {right}"
    if level < parent_level:
        return f"({text})"
    return text


def _schema_line(schema: SchemaDecl) -> str:
    params = ", ".join(f"{p.name}: {p.kind} {p.adornment}" for p in schema.parameters)
    return f"  schema {schema.event_type}({params});"


def _channel_line(channel: Channel) -> str:
    return (
        f"  channel {channel.name} members {', '.join(channel.members)}"
        f" carries {', '.join(channel.carries)};"
    )


def _counts_as_line(rule: ast.CountsAsRule) -> str:
    bindings = ", ".join(
        attr if attr == var else f"{attr}: {var}" for attr, var in rule.projection
    )
    return (
        f"  counts-as {rule.fact}({bindings})"
        f" from {format_pattern(rule.source)} by {rule.required_role};"
    )


def _role_clause(clause: ast.RoleClause) -> str:
    if clause.variable is None:
        return clause.role
    return f"{clause.role}: {clause.variable}"


def _norm_lines(norm: ast.NormDecl) -> list[str]:
    header = (
        f"  {norm.kind} {norm.id}"
        f" subject {_role_clause(norm.subject)}"
        f" object {_role_clause(norm.object)}"
    )
    if norm.context is not None:
        header += f" context {norm.context}"
    lines = [header + " {"]
    lines.append(f"    create on {format_condition(norm.create)};")
    if norm.kind == ast.PROHIBITION:
        lines.append(f"    forbids {format_pattern(norm.forbids)};")
        if norm.exemption is not None:
            exemption = format_condition(norm.exemption)
            if isinstance(norm.exemption, ast.Before):
                # would swallow the clause's own 'before' keyword
                exemption = f"({exemption})"
            lines.append(
                f"    unless {exemption} before {format_pattern(norm.exemption_guard)};"
            )
        lines.append(f"    until {format_condition(norm.until)};")
    else:
        if norm.antecedent is not None:
            lines.append(f"    antecedent {format_condition(norm.antecedent)};")
        lines.append(
            f"    consequent {format_condition(norm.consequent)}"
            f" within {norm.deadline_blocks} blocks;"
        )
        if norm.expiry_blocks is not None:
            lines.append(f"    expires after {norm.expiry_blocks} blocks;")
    lines.append("  }")
    return lines


def pretty_print(spec: ast.CompactSpec) -> str:
    """Render a compact in canonical form; parse(pretty_print(s)) == s."""
    lines = [f"compact {spec.name} context {spec.context} {{", ""]
    lines.append(f"  roles {', '.join(spec.roles)};" if spec.roles else "  roles;")
    if spec.schemas:
        lines.append("")
        lines.extend(_schema_line(s) for s in spec.schemas)
    if spec.channels:
        lines.append("")
        lines.extend(_channel_line(c) for c in spec.channels)
    if spec.counts_as:
        lines.append("")
        lines.extend(_counts_as_line(r) for r in spec.counts_as)
    for norm in spec.norms:
        lines.append("")
        lines.extend(_norm_lines(norm))
    lines.append("}")
    return "\n".join(lines) + "\n"
