"""Incremental evaluation: advance an EvalState one block at a time.

This is the engine the CLI runs: fold_chain evaluates a verified chain by
folding apply_block over its blocks. Batch evaluate (evaluator.py) is the
reference it is tested against.

apply_block carries the instance table, fact set and per-condition match
caches forward instead of replaying the chain. Caches hold the full match set
of every norm clause and grow by semi-naive deltas. A new event or fact goes
only to the leaves whose head (event type or fact name) names it, via a
table built with the run: Rete's alpha network, one level deep. Each leaf
compiles its pattern once to a plan (literal tests, repeated-variable tests,
binds in variable order) that builds a match's bindings straight from the
event's attribute map or the fact's bindings, with matching._extend's
semantics; a property test holds the two equal. A route carries the path from
its leaf to the root, fixed as in Rete where an alpha memory feeds the beta
network: the leaf's new matches climb it, joining the other side's matches at
each node. Joins and clause queries probe a condition's matches by a bindings
tuple sorted by name, the order Bindings promises and the probes rely on: a
view is keyed by the tuple's names, as Rete/UL hashes its memories by
join-variable values (Doorenbos, 1995). The lifecycle rules are the batch
evaluator's own (evaluator._Run); _IncrementalRun answers their match queries
from the cached sets, hands _spawn just the create matches added since its
last pass, and tells a pass and _lapse which instances to look at.

A block steps only what it touched. A step reads only the instance and the
clause matches compatible with its key (_first_unexempted's merged bindings
select a subset of those), so an instance whose state has not changed and
whose clauses gained no compatible match since its last step would step to
no transition again. A pass steps an agenda: _Run._enlist adds an instance
as it is created and as a transition leaves it live, and a clause of its
norm adds it on gaining a match that agrees with its key on the names both
bind. Those keys are read from the norm's create index, since each key is a
create match's bindings; the live ones are woken. The agenda keeps batch's
order: creation order, the seq _Run.live maps a key to; woken above the
cursor, an instance steps in this pass, at or below it (the one stepping
too) in the next. _lapse pops a heap of (due height, seq, key), pushed at
_Run._lapse_height by _enlist; _Run's lapse conditions skip stale entries.

A pass is due (_due) only while the agenda or the unspawned create matches
are non-empty: a pass spawns only unspawned matches and steps only agenda
keys, so otherwise it would do nothing. So an event passes only if it or
its counts-as facts woke or created something, a fixpoint ends as soon as
a pass's facts wake and create nothing, and a boundary passes only if its
lapses' facts woke or created something. A boundary where nothing is due
costs one look at the lapse heap's earliest height. The state a block
returns shares the run's instance table and facts tuple until the run next
writes them (_Run.freeze).

A run is built one way only, empty and then block by block, and apply_block
hands it on in the state it returns. It continues the run of a state whose
frontier is the run's own. A state it cannot continue (batch, superseded, or
left part-way by an exception, which leaves the run's frontier None) is
re-folded: a new run processes every height up to the state's frontier,
empty ones too, from the old run's append-only trace cut there.

Replay equivalence with the batch evaluator (evaluate(chain) equals folding
apply_block over the blocks) is the correctness contract. The cached matcher
here and the rescanning match_condition share no code, only the leaf
pattern semantics: they are a differential pair, so keep them independent.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .evaluator import EvalState, _Run, ensure_spec_well_formed
from .governance import EMPTY_ORGANIZATION, Organization, counts_as_facts_for_event
from .lang import ast
from .ledger import Block, Chain, Event, Position
from .matching import (
    Bindings,
    DerivedFact,
    Match,
    fact_name,
    freeze_bindings,
    match_sort_key,
)


_Key = tuple[str, Bindings]  # an instance's (norm id, key bindings)


class NonContiguousBlock(Exception):
    """The block does not directly extend the state's frontier."""


_ABSENT = object()  # unequal to every attribute value: a missing attribute fails
_name = itemgetter(0)  # of a (name, value) pair


def _merge(a: Bindings, b: Bindings) -> Bindings:
    merged = dict(a)
    merged.update(b)
    return freeze_bindings(merged)


def _compile(pattern: ast.Condition) -> tuple[tuple, tuple, tuple]:
    """A leaf pattern's plan, matching._extend's semantics from no bindings:
    its literal tests (attribute, value), its repeated-variable tests
    (attribute, the variable's first attribute) and its binds (variable,
    first attribute) in variable order, so a match's bindings come out
    sorted. A variable takes its first occurrence's value."""
    literals, repeats, first = [], [], {}
    for constraint in pattern.constraints:
        term, attribute = constraint.term, constraint.attribute
        if isinstance(term, ast.Literal):
            literals.append((attribute, term.value))
        elif term.name in first:
            repeats.append((attribute, first[term.name]))
        else:
            first[term.name] = attribute
    return tuple(literals), tuple(repeats), tuple(sorted(first.items()))


def _slot(view: dict, names: tuple[str, ...], bindings: Bindings) -> dict:
    projection = tuple([pair for pair in bindings if pair[0] in names])
    group = tuple(map(_name, projection))
    entry = view.get(group)
    if entry is None:  # probes project onto the group through these positions
        positions = None if group == names else tuple([names.index(name) for name in group])
        entry = view[group] = (positions, {})
    return entry[1].setdefault(projection, {})


class _CondIndex:
    """Cached match set of one condition, updated by deltas: a leaf is
    offered events and facts; a node, deltas. Matches are only ever added.

    A leaf compiles its pattern once (_compile). Lookups take sorted
    bindings and go through one view per tuple of their names, built on its
    first query. It files each match under its bindings projected onto those
    names, grouped by which of the names the match binds: the two sides of an
    ``or`` may bind different ones. A probe looks a group equal to its names
    up by its own bindings, and any other group by their projection through
    the positions the view keeps. A create index also finds the instances a
    clause match wakes: each instance key is one of its matches' bindings.

    A node holds no reference to its parent: a run's route carries a leaf
    and its path to the root (paths) as (child, parent) steps to climb."""

    __slots__ = ("cond", "left", "right", "matches", "views", "plan")

    def __init__(self, cond: ast.Condition):
        self.cond = cond
        self.left: Optional[_CondIndex] = None
        self.right: Optional[_CondIndex] = None
        self.plan = None
        if isinstance(cond, (ast.And, ast.Or, ast.Before)):
            self.left = _CondIndex(cond.left)
            self.right = _CondIndex(cond.right)
        else:
            self.plan = (isinstance(cond, ast.EventPattern),) + _compile(cond)
        self.matches: dict[Match, None] = {}  # not a set: views are built in the order added
        # names probed -> names a match binds among them -> (positions, projection -> matches)
        self.views: dict[tuple[str, ...], dict[tuple[str, ...], tuple]] = {}

    def compatible_with(self, bindings: Bindings) -> list[Match]:
        """The matches that agree with bindings on every name both bind."""
        names = tuple(map(_name, bindings))
        view = self.views.get(names)
        if view is None:
            view = self.views[names] = {}
            for match in self.matches:
                _slot(view, names, match.bindings)[match] = None
        found: list[Match] = []
        for positions, table in view.values():
            key = bindings if positions is None else tuple([bindings[i] for i in positions])
            found.extend(table.get(key, ()))
        return found

    def paths(self) -> list[tuple[_CondIndex, ...]]:  # leaf first, leaves left to right
        return [(self,)] if self.left is None else [p + (self,) for p in self.left.paths() + self.right.paths()]

    def _absorb(self, candidates: list[Match]) -> list[Match]:
        fresh = []
        for match in candidates:
            if match not in self.matches:
                self.matches[match] = None
                for names, view in self.views.items():
                    _slot(view, names, match.bindings)[match] = None
                fresh.append(match)
        return fresh

    def offer(self, pos: Position, item: Event | DerivedFact) -> list[Match]:
        """Match an event or fact this leaf's head names; return what it adds here."""
        on_events, literals, repeats, binds = self.plan
        get = (item.attribute_map if on_events else item.binding_map).get
        for attribute, value in literals:
            if get(attribute, _ABSENT) != value:
                return []
        for attribute, first in repeats:
            if get(attribute, _ABSENT) != get(first, _ABSENT):
                return []
        bindings = []
        for name, attribute in binds:
            value = get(attribute, _ABSENT)
            if value is _ABSENT:
                return []
            bindings.append((name, value))
        return self._absorb([Match(tuple(bindings), pos)])

    def join(self, child: _CondIndex, delta: list[Match]) -> list[Match]:
        """Take in a child's new matches; return what they add here. A pair of
        two new matches is made once, as the later of their two leaves climbs."""
        cond = self.cond
        if isinstance(cond, ast.Or):
            return self._absorb(delta)
        if child is self.left:
            pairs = [(lm, rm) for lm in delta for rm in self.right.compatible_with(lm.bindings)]
        else:
            pairs = [(lm, rm) for rm in delta for lm in self.left.compatible_with(rm.bindings)]
        if isinstance(cond, ast.And):
            return self._absorb(
                [Match(_merge(lm.bindings, rm.bindings), max(lm.witness, rm.witness)) for lm, rm in pairs]
            )
        # Before: the left witness must strictly precede the right witness
        return self._absorb(
            [Match(_merge(lm.bindings, rm.bindings), rm.witness) for lm, rm in pairs if lm.witness < rm.witness]
        )


class _IncrementalRun(_Run):
    """The shared lifecycle over cached match sets, advanced block by block.

    Next to _Run's fields it keeps a condition index per (norm, clause), the
    create matches _spawn has not read yet, the agenda and the lapse heap. A
    run starts empty and only process_block advances it. apply_block
    continues it from a state whose frontier is the run's own; any other
    state is re-folded into a new run (_refold).
    """

    def __init__(self, spec: ast.CompactSpec, org: Organization):
        super().__init__(spec, org)
        self.indexes: dict[tuple[str, str], _CondIndex] = {}
        self.routes: dict[tuple[str, str], list[tuple[_CondIndex, tuple, str, str]]] = {}
        for norm in spec.norms:
            for clause, cond in norm.clauses():
                root = self.indexes[(norm.id, clause)] = _CondIndex(cond)
                for path in root.paths():  # event types and fact names kept apart
                    p = path[0].cond
                    head = ("event", p.event_type) if isinstance(p, ast.EventPattern) else ("fact", fact_name(p))
                    self.routes.setdefault(head, []).append((path[0], tuple(zip(path, path[1:])), norm.id, clause))
        self.unspawned: dict[str, list[Match]] = {}
        self.agenda: list[tuple[int, int, _Key]] = []  # (pass, seq, key)
        self.passes = 0  # passes done: the number of the pass under way, or next
        self.cursor = -1  # seq of the instance being stepped, -1 between passes
        self.lapses: list[tuple[int, int, _Key]] = []

    def _advance(self, pos: Position, head: tuple[str, str], item: Event | DerivedFact) -> None:
        for leaf, climb, norm_id, clause in self.routes.get(head, ()):
            fresh = leaf.offer(pos, item)
            for child, node in climb:  # up to the root, while it adds
                fresh = fresh and node.join(child, fresh)
            if fresh and clause == "create":
                self.unspawned.setdefault(norm_id, []).extend(fresh)
            elif fresh:
                create = self.indexes[(norm_id, "create")]
                for match in fresh:
                    for created in create.compatible_with(match.bindings):
                        key = (norm_id, created.bindings)
                        if key in self.live:
                            self._wake(key)

    def _enlist(self, key: _Key) -> None:
        """Wake a new or still-live instance and schedule its lapse. Its own
        detached fact, or a clause match that agrees with several of its
        create matches, may wake it again: _pass_keys skips the repeat."""
        self._wake(key)
        due = self._lapse_height(self.instances[key])
        if due is not None:
            heapq.heappush(self.lapses, (due, self.live[key], key))

    def _wake(self, key: _Key) -> None:
        seq = self.live[key]  # at or below the cursor it waits for the next pass
        heapq.heappush(self.agenda, (self.passes + (seq <= self.cursor), seq, key))

    def _lapse_keys(self, now: Position) -> Iterable[_Key]:
        lapses, due = self.lapses, set()
        while lapses and lapses[0][0] < now.block_index:
            due.add(heapq.heappop(lapses)[1:])
        return [key for _, key in sorted(due) if key in self.live] if due else ()

    def _pass_keys(self) -> Iterator[_Key]:
        while self.agenda and self.agenda[0][0] == self.passes:
            _, seq, key = heapq.heappop(self.agenda)
            if seq > self.cursor and key in self.live:
                self.cursor = seq
                yield key
        self.passes, self.cursor = self.passes + 1, -1

    def process_event(self, pos: Position, event: Event) -> None:
        self.trace.append((pos, event))
        self._advance(pos, ("event", event.event_type), event)
        for fact in counts_as_facts_for_event(pos, event, self.spec.counts_as, self.org):
            self.add_fact(fact)
        self._fixpoint()

    def _due(self) -> bool:
        # a pass spawns only unspawned matches and steps only agenda keys
        return bool(self.agenda or self.unspawned)

    def add_fact(self, fact: DerivedFact) -> bool:
        if not super().add_fact(fact):
            return False
        self._advance(fact.witness, ("fact", fact.name), fact)
        return True

    def clause_matches(self, norm: ast.NormDecl, clause: str, base: Bindings) -> list[Match]:
        found = self.indexes[(norm.id, clause)].compatible_with(base)
        if len(found) > 1:
            found.sort(key=match_sort_key)
        return found

    def create_matches(self, norm: ast.NormDecl) -> list[Match]:
        waiting = self.unspawned.pop(norm.id, [])
        if len(waiting) > 1:
            waiting.sort(key=match_sort_key)
        return waiting


def initial_state(spec: ast.CompactSpec, org: Organization) -> EvalState:
    """State after the genesis block: nothing seen, frontier at height 0."""
    ensure_spec_well_formed(spec)
    return _IncrementalRun(spec, org).freeze()


def _refold(state: EvalState) -> _IncrementalRun:
    """A new run past every block up to the state's frontier, read from the
    trace of the run that froze the state."""
    height, trace = state.frontier.block_index, state.run.trace
    events: dict[int, list[Event]] = {}
    for pos, event in trace[: bisect_left(trace, (Position(height + 1, -1),))]:
        events.setdefault(pos.block_index, []).append(event)
    run = _IncrementalRun(state.spec, state.org)
    for h in range(1, height + 1):
        run.process_block(h, events.get(h, ()))
    return run


def apply_block(state: EvalState, block: Block) -> EvalState:
    """Advance a state by exactly the next block; equals batch evaluation of
    the extended prefix."""
    if block.header.index != state.frontier.block_index + 1:
        raise NonContiguousBlock(
            f"frontier at block {state.frontier.block_index}, got block {block.header.index}"
        )
    run = state.run
    if not isinstance(run, _IncrementalRun) or run.frontier != state.frontier:
        run = _refold(state)
    run.process_block(block.header.index, block.events)
    return run.freeze()


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
