"""Incremental evaluation: advance an EvalState one block at a time.

apply_block carries the instance table, fact set and per-condition match
caches forward instead of replaying the chain. Caches hold the full match set
of every norm clause and grow by semi-naive deltas: a new event (or fact)
produces new leaf matches, which join against the other side's existing
matches on the way up the condition tree. The lifecycle rules are the batch
evaluator's own (evaluator._Run); _IncrementalRun only answers their clause
queries from the cached sets.

Replay equivalence with the batch evaluator (evaluate(chain) equals folding
apply_block over the blocks) is the correctness contract. The cached matcher
here and the rescanning match_condition share only the leaf pattern
semantics: they are a differential pair, so keep them independent.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .evaluator import EvalState, _Run, ensure_spec_well_formed
from .governance import Organization, counts_as_facts_for_event
from .lang import ast
from .ledger import Block, Event, Position, Scalar
from .matching import (
    Bindings,
    DerivedFact,
    Match,
    compatible,
    freeze_bindings,
    match_event_pattern,
    match_fact_pattern,
    match_sort_key,
)


class NonContiguousBlock(Exception):
    """The block does not directly extend the state's frontier."""


def _merge(a: Bindings, b: Bindings) -> Bindings:
    merged = dict(a)
    merged.update(b)
    return tuple(sorted(merged.items()))


class _CondIndex:
    """Cached match set of one condition, updated by deltas.

    matches is a dict used as an insertion-ordered set of Match tuples.
    """

    __slots__ = ("cond", "matches", "left", "right")

    def __init__(self, cond: ast.Condition, _empty: bool = False):
        self.cond = cond
        self.matches: dict[Match, None] = {}
        self.left: Optional[_CondIndex] = None
        self.right: Optional[_CondIndex] = None
        if not _empty and isinstance(cond, (ast.And, ast.Or, ast.Before)):
            self.left = _CondIndex(cond.left)
            self.right = _CondIndex(cond.right)

    def clone(self) -> "_CondIndex":
        copy = _CondIndex(self.cond, _empty=True)
        copy.matches = dict(self.matches)
        copy.left = self.left.clone() if self.left else None
        copy.right = self.right.clone() if self.right else None
        return copy

    def _absorb(self, candidates: list[Match]) -> list[Match]:
        fresh = []
        for match in candidates:
            if match not in self.matches:
                self.matches[match] = None
                fresh.append(match)
        return fresh

    def add_event(self, pos: Position, event: Event) -> list[Match]:
        return self._advance("event", pos, event, None)

    def add_fact(self, fact: DerivedFact) -> list[Match]:
        return self._advance("fact", fact.witness, None, fact)

    def _advance(self, kind, pos, event, fact) -> list[Match]:
        cond = self.cond
        if isinstance(cond, ast.EventPattern):
            if kind != "event":
                return []
            extended = match_event_pattern(cond, event, {})
            if extended is None:
                return []
            return self._absorb([Match(freeze_bindings(extended), pos)])
        if isinstance(cond, (ast.FactPattern, ast.NormStateFactPattern)):
            if kind != "fact":
                return []
            extended = match_fact_pattern(cond, fact, {})
            if extended is None:
                return []
            return self._absorb([Match(freeze_bindings(extended), pos)])

        left_before = list(self.left.matches)
        delta_left = self.left._advance(kind, pos, event, fact)
        right_before = list(self.right.matches)
        delta_right = self.right._advance(kind, pos, event, fact)

        if isinstance(cond, ast.Or):
            return self._absorb(delta_left + delta_right)
        if isinstance(cond, ast.And):
            produced = self._join_and(delta_left, right_before + delta_right)
            produced += self._join_and(left_before, delta_right)
            return self._absorb(produced)
        # Before: the left witness must strictly precede the right witness
        produced = self._join_before(delta_left, right_before + delta_right)
        produced += self._join_before(left_before, delta_right)
        return self._absorb(produced)

    @staticmethod
    def _join_and(lefts: list[Match], rights: list[Match]) -> list[Match]:
        out = []
        for lm in lefts:
            left_map = dict(lm.bindings)
            for rm in rights:
                if compatible(left_map, rm.bindings):
                    out.append(Match(_merge(lm.bindings, rm.bindings), max(lm.witness, rm.witness)))
        return out

    @staticmethod
    def _join_before(lefts: list[Match], rights: list[Match]) -> list[Match]:
        out = []
        for lm in lefts:
            left_map = dict(lm.bindings)
            for rm in rights:
                if lm.witness < rm.witness and compatible(left_map, rm.bindings):
                    out.append(Match(_merge(lm.bindings, rm.bindings), rm.witness))
        return out


class _Caches:
    """Per-(norm, clause) condition indexes carried inside an EvalState."""

    def __init__(self, spec: ast.CompactSpec):
        self.indexes: dict[tuple[str, str], _CondIndex] = {}
        for norm in spec.norms:
            for clause, cond in norm.clauses():
                self.indexes[(norm.id, clause)] = _CondIndex(cond)

    def clone(self) -> "_Caches":
        copy = object.__new__(_Caches)
        copy.indexes = {key: idx.clone() for key, idx in self.indexes.items()}
        return copy

    def add_event(self, pos: Position, event: Event) -> None:
        for idx in self.indexes.values():
            idx.add_event(pos, event)

    def add_fact(self, fact: DerivedFact) -> None:
        for idx in self.indexes.values():
            idx.add_fact(fact)


def initial_state(spec: ast.CompactSpec, org: Organization) -> EvalState:
    """State after the genesis block: nothing seen, frontier at height 0."""
    ensure_spec_well_formed(spec)
    return EvalState(
        spec=spec,
        org=org,
        instances={},
        facts=(),
        frontier=Position(0, -1),
        trace=(),
        caches=_Caches(spec),
    )


class _IncrementalRun(_Run):
    """The shared lifecycle over cached match sets, advanced one block."""

    def __init__(self, state: EvalState):
        super().__init__(state.spec, state.org)
        self.trace = list(state.trace)
        self.facts = list(state.facts)
        self._fact_keys = {(f.name, f.bindings) for f in self.facts}
        self.instances = dict(state.instances)
        if isinstance(state.caches, _Caches):
            self.caches = state.caches.clone()
        else:
            self.caches = _Caches(state.spec)
            for pos, event in self.trace:
                self.caches.add_event(pos, event)
            for fact in self.facts:
                self.caches.add_fact(fact)

    def process_event(self, pos: Position, event: Event) -> None:
        self.trace.append((pos, event))
        self.caches.add_event(pos, event)
        for fact in counts_as_facts_for_event(pos, event, self.spec.counts_as, self.org):
            self.add_fact(fact)
        self._fixpoint()

    def add_fact(self, fact: DerivedFact) -> bool:
        if not super().add_fact(fact):
            return False
        self.caches.add_fact(fact)
        return True

    def clause_matches(
        self, norm: ast.NormDecl, clause: str, base: dict[str, Scalar]
    ) -> list[Match]:
        idx = self.caches.indexes[(norm.id, clause)]
        found = [m for m in idx.matches if compatible(base, m.bindings)]
        return sorted(found, key=match_sort_key)

    def freeze(self, frontier: Position) -> EvalState:
        return replace(super().freeze(frontier), caches=self.caches)


def apply_block(state: EvalState, block: Block) -> EvalState:
    """Advance a state by exactly the next block; equals batch evaluation of
    the extended prefix."""
    if block.header.index != state.frontier.block_index + 1:
        raise NonContiguousBlock(
            f"frontier at block {state.frontier.block_index}, got block {block.header.index}"
        )
    run = _IncrementalRun(state)
    frontier = run.process_block(block)
    return run.freeze(frontier)
