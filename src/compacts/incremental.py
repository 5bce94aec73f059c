"""Incremental evaluation: advance an EvalState one block at a time.

This is the engine the CLI runs: fold_chain evaluates a verified chain by
folding apply_block over its blocks. Batch evaluate (evaluator.py) is the
reference it is tested against.

apply_block carries the instance table, fact set and per-condition match
caches forward instead of replaying the chain. Caches hold the full match set
of every norm clause and grow by semi-naive deltas: a new event (or fact)
produces new leaf matches, which join against the other side's existing
matches on the way up the condition tree. Both the joins and the lifecycle's
clause queries look matches up by their bindings instead of scanning a
cache. The lifecycle rules are the batch evaluator's own (evaluator._Run);
_IncrementalRun only answers their match queries from the cached sets, and
hands _spawn just the create matches added since its last pass.

The run is not copied from block to block: apply_block hands it on in the
state it returns and continues it from that state. A state the run has moved
past, or one batch evaluate made, replays its trace into a new run if it is
ever applied again.

Replay equivalence with the batch evaluator (evaluate(chain) equals folding
apply_block over the blocks) is the correctness contract. The cached matcher
here and the rescanning match_condition share only the leaf pattern
semantics: they are a differential pair, so keep them independent.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .evaluator import EvalState, _Run, ensure_spec_well_formed
from .governance import EMPTY_ORGANIZATION, Organization, counts_as_facts_for_event
from .lang import ast
from .ledger import Block, Chain, Event, Position, Scalar
from .matching import (
    Bindings,
    DerivedFact,
    Match,
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
    return freeze_bindings(merged)


class _CondIndex:
    """Cached match set of one condition, updated by deltas.

    matches is a dict used as an insertion-ordered set of Match tuples.
    views answer "which matches are compatible with these bindings" by
    lookup instead of a scan. There is one view per set of base variable
    names, built on its first query. It files each match under the match's
    bindings projected onto those names, grouped by which of the names the
    match binds: the two sides of an ``or`` may bind different ones.
    """

    __slots__ = ("cond", "matches", "views", "left", "right")

    def __init__(self, cond: ast.Condition):
        self.cond = cond
        self.matches: dict[Match, None] = {}
        # base names -> names a match binds among them -> projection -> matches
        self.views: dict[tuple[str, ...], dict[tuple[str, ...], dict[Bindings, list[Match]]]] = {}
        self.left: Optional[_CondIndex] = None
        self.right: Optional[_CondIndex] = None
        if isinstance(cond, (ast.And, ast.Or, ast.Before)):
            self.left = _CondIndex(cond.left)
            self.right = _CondIndex(cond.right)

    def compatible_with(self, base: Mapping[str, Scalar]) -> list[Match]:
        """The cached matches that agree with base on every variable both bind."""
        names = tuple(sorted(base))
        view = self.views.get(names)
        if view is None:
            view = self.views[names] = {}
            for match in self.matches:
                _file(view, names, match)
        found: list[Match] = []
        for group, table in view.items():
            found.extend(table.get(tuple([(name, base[name]) for name in group]), ()))
        return found

    def _absorb(self, candidates: list[Match]) -> list[Match]:
        fresh = []
        for match in candidates:
            if match not in self.matches:
                self.matches[match] = None
                fresh.append(match)
                for names, view in self.views.items():
                    _file(view, names, match)
        return fresh

    def advance(self, pos: Position, event: Optional[Event], fact: Optional[DerivedFact]) -> list[Match]:
        """Take in one new event or fact; return the matches it adds."""
        cond = self.cond
        if isinstance(cond, ast.PatternLike):
            if isinstance(cond, ast.EventPattern):
                extended = match_event_pattern(cond, event, {}) if event is not None else None
            else:
                extended = match_fact_pattern(cond, fact, {}) if fact is not None else None
            if extended is None:
                return []
            return self._absorb([Match(freeze_bindings(extended), pos)])

        delta_left = self.left.advance(pos, event, fact)
        delta_right = self.right.advance(pos, event, fact)
        if isinstance(cond, ast.Or):
            return self._absorb(delta_left + delta_right)
        # new joins: the left delta against all rights, all lefts against the
        # right delta (pairs of two deltas come twice; _absorb drops one)
        pairs = [(lm, rm) for lm in delta_left for rm in self.right.compatible_with(dict(lm.bindings))]
        pairs += [(lm, rm) for rm in delta_right for lm in self.left.compatible_with(dict(rm.bindings))]
        if isinstance(cond, ast.And):
            return self._absorb(
                [Match(_merge(lm.bindings, rm.bindings), max(lm.witness, rm.witness)) for lm, rm in pairs]
            )
        # Before: the left witness must strictly precede the right witness
        return self._absorb(
            [Match(_merge(lm.bindings, rm.bindings), rm.witness) for lm, rm in pairs if lm.witness < rm.witness]
        )


def _file(view: dict, names: tuple[str, ...], match: Match) -> None:
    projection = tuple([(name, value) for name, value in match.bindings if name in names])
    group = tuple([name for name, _ in projection])
    view.setdefault(group, {}).setdefault(projection, []).append(match)


def initial_state(spec: ast.CompactSpec, org: Organization) -> EvalState:
    """State after the genesis block: nothing seen, frontier at height 0."""
    ensure_spec_well_formed(spec)
    return _Run(spec, org).freeze(Position(0, -1))


class _IncrementalRun(_Run):
    """The shared lifecycle over cached match sets, advanced block by block.

    Next to _Run's fields it keeps a condition index per (norm, clause) and
    the create matches _spawn has not read yet. A run is valid for the one
    frontier it was frozen at: the state freeze returns holds it, and
    apply_block continues it from that state. Any other state, batch or
    superseded, replays its trace and facts into a new run.
    """

    def __init__(self, state: EvalState):
        super().__init__(state.spec, state.org)
        self.indexes: dict[tuple[str, str], _CondIndex] = {}
        for norm in state.spec.norms:
            for clause, cond in norm.clauses():
                self.indexes[(norm.id, clause)] = _CondIndex(cond)
        self.unspawned: dict[str, list[Match]] = {}
        for pos, event in state.trace:
            self.trace.append((pos, event))
            self._advance(pos, event, None)
        for fact in state.facts:
            self.add_fact(fact)
        self.instances = dict(state.instances)
        self.live = {key: None for key, inst in state.instances.items() if not inst.is_terminal()}
        self.frontier: Optional[Position] = state.frontier

    def _advance(self, pos: Position, event: Optional[Event], fact: Optional[DerivedFact]) -> None:
        for (norm_id, clause), idx in self.indexes.items():
            fresh = idx.advance(pos, event, fact)
            if fresh and clause == "create":
                self.unspawned.setdefault(norm_id, []).extend(fresh)

    def process_event(self, pos: Position, event: Event) -> None:
        self.trace.append((pos, event))
        self._advance(pos, event, None)
        for fact in counts_as_facts_for_event(pos, event, self.spec.counts_as, self.org):
            self.add_fact(fact)
        self._fixpoint()

    def add_fact(self, fact: DerivedFact) -> bool:
        if not super().add_fact(fact):
            return False
        self._advance(fact.witness, None, fact)
        return True

    def clause_matches(
        self, norm: ast.NormDecl, clause: str, base: dict[str, Scalar]
    ) -> list[Match]:
        found = self.indexes[(norm.id, clause)].compatible_with(base)
        if len(found) > 1:
            found.sort(key=match_sort_key)
        return found

    def create_matches(self, norm: ast.NormDecl) -> list[Match]:
        return sorted(self.unspawned.pop(norm.id, ()), key=match_sort_key)

    def freeze(self, frontier: Position) -> EvalState:
        self.frontier = frontier
        return super().freeze(frontier)


def apply_block(state: EvalState, block: Block) -> EvalState:
    """Advance a state by exactly the next block; equals batch evaluation of
    the extended prefix."""
    if block.header.index != state.frontier.block_index + 1:
        raise NonContiguousBlock(
            f"frontier at block {state.frontier.block_index}, got block {block.header.index}"
        )
    run = state.caches
    if not isinstance(run, _IncrementalRun) or run.frontier != state.frontier:
        run = _IncrementalRun(state)
    run.frontier = None  # in use until freeze: a run left part-way is not continued
    frontier = run.process_block(block)
    return run.freeze(frontier)


def fold_chain(
    chain: Chain,
    spec: ast.CompactSpec,
    org: Organization = EMPTY_ORGANIZATION,
) -> EvalState:
    """Evaluate a chain the caller has verified by folding apply_block over
    its blocks; equals evaluator.evaluate(chain, spec, org)."""
    state = initial_state(spec, org)
    for block in chain.blocks[1:]:
        state = apply_block(state, block)
    return state
