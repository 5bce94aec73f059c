"""Existential matching of conditions over an ordered event trace.

A match is a consistent assignment of values to a condition's variables plus
the witness position at which the condition completed. Semantics: an event
pattern matches any trace event of its type whose attributes satisfy the
constraints; ``and`` joins compatible matches (witness = the later one);
``or`` unions them; ``before`` requires the left witness to be strictly
earlier than the right and completes at the right witness. Derived-fact
patterns match the fact store the same way events match the trace.

Match is a named tuple (bindings, witness) and Position is one too, so
witnesses order with ``<`` and ``max`` and matches deduplicate by hashing
themselves. Bindings are tuples of (name, value) pairs sorted by name.

match_condition is the batch evaluator's matcher: it rescans the trace on
every query. The incremental engine keeps cached match sets built on the same
leaf functions. The two matchers are a differential pair that the tests
compare, so keep them independent; the norm lifecycle above them is shared
(evaluator._Run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .lang import ast
from .ledger import Event, Position, Scalar

Bindings = tuple[tuple[str, Scalar], ...]  # sorted by variable name


@dataclass(frozen=True)
class DerivedFact:
    """A deterministic conclusion recomputed from the chain, never stored on it.

    Counts-as facts carry their declared name; norm lifecycle facts are named
    ``state(norm_id)`` (e.g. ``violated(P1)``).
    """

    name: str
    bindings: Bindings
    witness: Position

    @property
    def binding_map(self) -> dict[str, Scalar]:
        return dict(self.bindings)


def norm_state_fact_name(state: str, norm_id: str) -> str:
    return f"{state}({norm_id})"


class Match(NamedTuple):
    bindings: Bindings
    witness: Position


def freeze_bindings(bindings: Mapping[str, Scalar]) -> Bindings:
    return tuple(sorted(bindings.items()))


def _scalar_key(value: Scalar) -> tuple[str, Scalar]:
    """The tag keeps the types apart, so only values of one type compare."""
    if isinstance(value, bool):  # bool is a subclass of int; test it first
        return ("b", value)
    if isinstance(value, int):
        return ("i", value)
    return ("s", value)


def bindings_sort_key(bindings: Bindings) -> tuple:
    return tuple((name, *_scalar_key(value)) for name, value in bindings)


def match_sort_key(match: Match) -> tuple:
    return (match.witness, bindings_sort_key(match.bindings))


def _extend(
    base: Mapping[str, Scalar],
    constraints: tuple[ast.Constraint, ...],
    values: Mapping[str, Scalar],
) -> Optional[dict[str, Scalar]]:
    """Unify pattern constraints against concrete values, extending base."""
    result = dict(base)
    for constraint in constraints:
        if constraint.attribute not in values:
            return None
        actual = values[constraint.attribute]
        term = constraint.term
        if isinstance(term, ast.Literal):
            if actual != term.value:
                return None
        else:
            bound = result.get(term.name)
            if bound is None:
                result[term.name] = actual
            elif bound != actual:
                return None
    return result


def match_event_pattern(
    pattern: ast.EventPattern,
    event: Event,
    base: Mapping[str, Scalar],
) -> Optional[dict[str, Scalar]]:
    if event.event_type != pattern.event_type:
        return None
    return _extend(base, pattern.constraints, event.attribute_map)


def match_fact_pattern(
    pattern: Union[ast.FactPattern, ast.NormStateFactPattern],
    fact: DerivedFact,
    base: Mapping[str, Scalar],
) -> Optional[dict[str, Scalar]]:
    if isinstance(pattern, ast.FactPattern):
        wanted = pattern.fact
    else:
        wanted = norm_state_fact_name(pattern.state, pattern.norm_id)
    if fact.name != wanted:
        return None
    return _extend(base, pattern.constraints, fact.binding_map)


def _dedup_sorted(matches: Iterable[Match]) -> list[Match]:
    unique = {m: m for m in matches}
    return sorted(unique.values(), key=match_sort_key)


def match_condition(
    condition: ast.Condition,
    trace: Sequence[tuple[Position, Event]],
    facts: Sequence[DerivedFact] = (),
    bindings: Optional[Mapping[str, Scalar]] = None,
) -> list[Match]:
    """All binding extensions under which the condition holds on trace and facts.

    Returned matches are deduplicated and sorted by (witness, bindings), so
    the first element is the earliest completion.
    """
    base = dict(bindings) if bindings else {}
    return _dedup_sorted(_match(condition, trace, facts, base))


def _match(
    condition: ast.Condition,
    trace: Sequence[tuple[Position, Event]],
    facts: Sequence[DerivedFact],
    base: Mapping[str, Scalar],
) -> list[Match]:
    if isinstance(condition, ast.EventPattern):
        out = []
        for pos, event in trace:
            extended = match_event_pattern(condition, event, base)
            if extended is not None:
                out.append(Match(freeze_bindings(extended), pos))
        return out
    if isinstance(condition, (ast.FactPattern, ast.NormStateFactPattern)):
        out = []
        for fact in facts:
            extended = match_fact_pattern(condition, fact, base)
            if extended is not None:
                out.append(Match(freeze_bindings(extended), fact.witness))
        return out
    if isinstance(condition, ast.And):
        out = []
        for left in _match(condition.left, trace, facts, base):
            for right in _match(condition.right, trace, facts, dict(left.bindings)):
                out.append(Match(right.bindings, max(left.witness, right.witness)))
        return out
    if isinstance(condition, ast.Or):
        return _match(condition.left, trace, facts, base) + _match(
            condition.right, trace, facts, base
        )
    if isinstance(condition, ast.Before):
        out = []
        for left in _match(condition.left, trace, facts, base):
            for right in _match(condition.right, trace, facts, dict(left.bindings)):
                if left.witness < right.witness:
                    out.append(Match(right.bindings, right.witness))
        return out
    raise TypeError(f"not a condition: {type(condition).__name__}")
