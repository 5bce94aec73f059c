"""Norm instance states from a verified chain: the shared lifecycle, and
batch evaluate, the reference evaluator.

The CLI does not run batch evaluate: it folds incremental.apply_block over the
chain, which runs the same lifecycle over cached matches. Batch evaluate is
what the tests and acceptance criterion 03 hold that fold to.

Reads the active chain and a compact, computes every norm instance's
lifecycle state, and never writes anything back. Events are processed in
Position order. At each step: counts-as facts first, then a fixpoint of
instance creation, lifecycle transitions and governance activation (state
changes surface as derived facts that later create conditions can match).
Deadline and expiry lapses fire at block boundaries, at the first block whose
height strictly exceeds the anchor height plus the allowance; boundary
positions carry offset -1.

The fixpoint repeats a pass (spawn, then step every live, that is
non-terminal, instance in creation order) until a pass adds no fact. This is
exact: events are fixed within a position, so a clause gains a match only
from a new fact; each transition emits a new fact (an instance enters each
state at most once); and a spawned instance is stepped in the pass that
spawned it. Nothing seen lies past the current position, so matching needs
no time cutoff. Here a pass steps, and _lapse checks, every live instance;
the incremental run narrows both, through _pass_keys and _lapse_keys, to
an agenda and a lapse heap that _enlist fills (incremental.py says why).

A pass runs at each event, and at a block boundary only if _lapse closed an
instance there. A boundary adds no event, so where nothing lapsed no fact is
new since the last pass ended, and a pass would add none (the incremental
run also skips an event's pass when it has nothing to spawn or step).

freeze hands each state the run's own instance table and facts tuple, with
no copy. The table is then shared: _put, the one write to it, first copies
a shared table, and the facts tuple is rebuilt only once a fact is added.
So a state never changes as its run goes on, and one from a block that
changed nothing holds its parent state's table and tuple.

Every lifecycle rule is written once, in _Run, which reads condition matches
only through clause_matches and create_matches. Here both rescan the full
prefix with match_condition, and create_matches returns every create match
(_spawn skips keys it has). The incremental engine in incremental.py
subclasses _Run and answers them from cached semi-naive match sets: keyed
lookups, and only the create matches that are new since the last pass. Its
run is handed on from state to state; a state it cannot continue re-folds
its prefix. The two matchers are a differential pair whose agreement is a
tested property, so keep them independent of each other.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .governance import EMPTY_ORGANIZATION, Organization, counts_as_facts_for_event
from .lang import ast
from .lang.checks import check_well_formedness
from .ledger import Chain, Event, Position, Scalar, verify_chain
from .matching import (
    Bindings,
    DerivedFact,
    Match,
    bindings_sort_key,
    match_condition,
    norm_state_fact_name,
)


class ChainInvalid(Exception):
    """The chain failed verification; evaluation refuses to proceed."""


class SpecIllFormed(Exception):
    """The compact has well-formedness errors; evaluation refuses to proceed."""


class NormState(Enum):
    ACTIVE = "active"
    DETACHED = "detached"
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    EXPIRED = "expired"


TERMINAL_STATES = frozenset({NormState.SATISFIED, NormState.VIOLATED, NormState.EXPIRED})


@dataclass(frozen=True, slots=True)
class NormInstance:
    """One binding of a norm's variables with its lifecycle state."""

    norm_id: str
    key_bindings: Bindings
    state: NormState
    created_at: Position
    detached_at: Optional[Position] = None
    closed_at: Optional[Position] = None
    violating_event: Optional[str] = None

    @property
    def binding_map(self) -> dict[str, Scalar]:
        return dict(self.key_bindings)

    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES


@dataclass(frozen=True)
class EvalState:
    """What the evaluator concluded from a processed chain prefix, its facts
    in derivation order. Its events stay in the append-only trace of run, the
    run that froze the state. Its instance table may be that run's, shared
    with later states: read it, copy it to change it."""

    spec: ast.CompactSpec
    org: Organization
    instances: dict[tuple[str, Bindings], NormInstance]
    facts: tuple[DerivedFact, ...]
    frontier: Position
    run: object = field(default=None, compare=False, repr=False)

    def instances_in_order(self) -> list[NormInstance]:
        return sorted(
            self.instances.values(),
            key=lambda i: (i.norm_id, bindings_sort_key(i.key_bindings)),
        )

    def facts_in_order(self) -> list[DerivedFact]:
        return sorted(self.facts, key=lambda f: (f.witness, f.name, bindings_sort_key(f.bindings)))


class _Run:
    """Mutable working state of one evaluation; the one copy of the lifecycle.
    Its trace and facts are append-only; frontier is the last position
    processed, None while a block is under way. Its instance table is
    shared with the states freeze returned until _put next writes it."""

    def __init__(self, spec: ast.CompactSpec, org: Organization):
        self.spec = spec
        self.org = org
        self._norms = {norm.id: norm for norm in spec.norms}
        self.trace: list[tuple[Position, Event]] = []
        self.facts: list[DerivedFact] = []
        self._fact_keys: set[tuple[str, Bindings]] = set()
        self.instances: dict[tuple[str, Bindings], NormInstance] = {}
        self._shared = False  # whether a frozen state holds self.instances
        self._frozen_facts: tuple[DerivedFact, ...] = ()
        # each non-terminal instance's key, mapped to its creation seq
        self.live: dict[tuple[str, Bindings], int] = {}
        self.frontier: Optional[Position] = Position(0, -1)

    def add_fact(self, fact: DerivedFact) -> bool:
        key = (fact.name, fact.bindings)
        if key in self._fact_keys:
            return False
        self._fact_keys.add(key)
        self.facts.append(fact)
        return True

    def clause_matches(
        self, norm: ast.NormDecl, clause: str, base: dict[str, Scalar]
    ) -> list[Match]:
        """Matches of one clause of a norm compatible with base, earliest first."""
        return match_condition(getattr(norm, clause), self.trace, self.facts, base)

    def create_matches(self, norm: ast.NormDecl) -> list[Match]:
        """Create matches _spawn has not read yet, earliest first. Here that
        is every match: _spawn skips the keys it already has."""
        return self.clause_matches(norm, "create", {})

    # --- lifecycle -----------------------------------------------------

    def process_block(self, height: int, events: Iterable[Event]) -> None:
        """Lapses at the boundary of the block at height, then each of its
        events in order; frontier is then the last position processed."""
        self.frontier, last = None, Position(height, -1)
        if self._lapse(last):  # else no fact is new since the last pass: a pass adds none
            self._fixpoint()
        for offset, event in enumerate(events):
            last = Position(height, offset)
            self.process_event(last, event)
        self.frontier = last

    def process_event(self, pos: Position, event: Event) -> None:
        self.trace.append((pos, event))
        for fact in counts_as_facts_for_event(pos, event, self.spec.counts_as, self.org):
            self.add_fact(fact)
        self._fixpoint()

    def _lapse(self, now: Position) -> bool:
        """Close every live instance due before now; returns whether any was."""
        lapsed = False
        for key in self._lapse_keys(now):
            inst = self.instances[key]
            due = self._lapse_height(inst)
            if due is not None and now.block_index > due:
                state = NormState.VIOLATED if inst.state is NormState.DETACHED else NormState.EXPIRED
                self._transition(
                    key,
                    NormInstance(inst.norm_id, inst.key_bindings, state, inst.created_at, inst.detached_at, now),
                    now,
                )
                lapsed = True
        return lapsed

    def _lapse_height(self, inst: NormInstance) -> Optional[int]:
        """The height a live instance lapses past: a detached commitment's
        deadline, an active one's expiry; None if it has neither."""
        norm = self._norms[inst.norm_id]
        if inst.state is NormState.DETACHED:  # only a commitment detaches
            return inst.detached_at.block_index + norm.deadline_blocks
        if norm.kind == ast.COMMITMENT and norm.expiry_blocks is not None:
            return inst.created_at.block_index + norm.expiry_blocks
        return None

    def _lapse_keys(self, now: Position) -> Iterable[tuple[str, Bindings]]:
        """Keys _lapse checks at now, in creation order: here every live one."""
        return list(self.live)

    def _fixpoint(self) -> None:
        known = -1
        while len(self.facts) != known:
            known = len(self.facts)
            self._spawn()
            self._transitions()

    def _spawn(self) -> None:
        for norm in self.spec.norms:
            for match in self.create_matches(norm):
                key = (norm.id, match.bindings)
                if key in self.instances:
                    continue
                detach_on_create = norm.kind == ast.COMMITMENT and norm.antecedent is None
                self.live[key] = len(self.instances)
                self._put(key, NormInstance(
                    norm_id=norm.id,
                    key_bindings=match.bindings,
                    state=NormState.DETACHED if detach_on_create else NormState.ACTIVE,
                    created_at=match.witness,
                    detached_at=match.witness if detach_on_create else None,
                ))
                self._enlist(key)
                if detach_on_create:
                    self._emit(norm.id, match.bindings, NormState.DETACHED, match.witness)

    def _enlist(self, key: tuple[str, Bindings]) -> None:
        """Called as an instance is created or a transition leaves it live: here nothing."""

    def _transitions(self) -> None:
        for key in self._pass_keys():
            inst = self.instances[key]
            norm = self._norms[inst.norm_id]
            if norm.kind == ast.COMMITMENT:
                self._step_commitment(key, inst, norm)
            else:
                self._step_prohibition(key, inst, norm)

    def _pass_keys(self) -> Iterable[tuple[str, Bindings]]:
        """Keys one pass steps, in creation order: here every live one."""
        return list(self.live)

    def _step_commitment(self, key, inst: NormInstance, norm: ast.NormDecl) -> None:
        base = inst.binding_map
        if inst.state is NormState.ACTIVE and norm.antecedent is not None:
            matches = self.clause_matches(norm, "antecedent", base)
            if matches:
                at = max(inst.created_at, matches[0].witness)
                self._transition(
                    key, NormInstance(inst.norm_id, inst.key_bindings, NormState.DETACHED, inst.created_at, at), at
                )
                return
        matches = self.clause_matches(norm, "consequent", base)
        if matches:
            at = max(inst.created_at, matches[0].witness)
            # early performance discharges straight from Active; the
            # commitment is consummated at its discharge point
            detached_at = inst.detached_at if inst.detached_at is not None else at
            self._transition(
                key,
                NormInstance(inst.norm_id, inst.key_bindings, NormState.SATISFIED, inst.created_at, detached_at, at),
                at,
            )

    def _step_prohibition(self, key, inst: NormInstance, norm: ast.NormDecl) -> None:
        base = inst.binding_map
        violation = self._first_unexempted(inst, norm)
        closure: Optional[Match] = None
        if norm.until is not None:
            for match in self.clause_matches(norm, "until", base):
                if inst.created_at <= match.witness:
                    closure = match
                    break
        if violation is not None and (closure is None or not closure.witness < violation.witness):
            # forbids is an event pattern, so its witness is a trace position
            _, event = self.trace[bisect.bisect_left(self.trace, (violation.witness,))]
            at, state, violating = violation.witness, NormState.VIOLATED, event.event_id
        elif closure is not None:
            at, state, violating = closure.witness, NormState.SATISFIED, None
        else:
            return
        self._transition(
            key,
            NormInstance(inst.norm_id, inst.key_bindings, state, inst.created_at, inst.detached_at, at, violating),
            at,
        )

    def _first_unexempted(self, inst: NormInstance, norm: ast.NormDecl) -> Optional[Match]:
        """Earliest forbidden match in force and not covered by an exemption
        at a strictly earlier position. Exemptions may predate creation;
        forbidden acts before creation are out of scope."""
        base = inst.binding_map
        for match in self.clause_matches(norm, "forbids", base):
            if match.witness < inst.created_at:
                continue
            if norm.exemption is not None:
                # a cached match need not carry the instance's own bindings
                merged = {**base, **dict(match.bindings)}
                covers = any(
                    m.witness < match.witness
                    for m in self.clause_matches(norm, "exemption", merged)
                )
                if covers:
                    continue
            return match
        return None

    def _transition(self, key, updated: NormInstance, at: Position) -> None:
        self._put(key, updated)
        if updated.is_terminal():
            del self.live[key]
        else:
            self._enlist(key)
        self._emit(updated.norm_id, updated.key_bindings, updated.state, at)

    def _emit(self, norm_id: str, bindings: Bindings, state: NormState, at: Position) -> None:
        self.add_fact(DerivedFact(norm_state_fact_name(state.value, norm_id), bindings, at))

    def _put(self, key, inst: NormInstance) -> None:
        """The one write to the instance table: a table a state holds is
        copied first, so no state ever sees the run go on."""
        if self._shared:
            self.instances, self._shared = dict(self.instances), False
        self.instances[key] = inst

    def freeze(self) -> EvalState:
        # facts are append-only, so an equal length means no fact is new
        if len(self._frozen_facts) != len(self.facts):
            self._frozen_facts = tuple(self.facts)
        self._shared = True
        return EvalState(
            spec=self.spec,
            org=self.org,
            instances=self.instances,
            facts=self._frozen_facts,
            frontier=self.frontier,
            run=self,
        )


def ensure_spec_well_formed(spec: ast.CompactSpec) -> None:
    problems = [d for d in check_well_formedness(spec) if d.severity == "error"]
    if problems:
        raise SpecIllFormed("; ".join(d.message for d in problems))


def evaluate(
    chain: Chain,
    spec: ast.CompactSpec,
    org: Organization = EMPTY_ORGANIZATION,
) -> EvalState:
    """Batch evaluation of a whole chain, from genesis."""
    bad = verify_chain(chain)
    if bad is not None:
        raise ChainInvalid(f"block {bad.index}: {bad.rejection}")
    ensure_spec_well_formed(spec)
    run = _Run(spec, org)
    for block in chain.blocks:
        run.process_block(block.header.index, block.events)
    return run.freeze()


def resolve_party(
    clause: ast.RoleClause,
    instance: NormInstance,
    org: Organization,
) -> Optional[str]:
    """Principal playing a subject/object role for one instance.

    ``Role: var`` takes the instance binding of var; a bare role resolves
    only if exactly one principal holds it in the context.
    """
    if clause.variable is not None:
        value = instance.binding_map.get(clause.variable)
        return value if isinstance(value, str) else None
    holders = org.holders(clause.role)
    if len(holders) == 1:
        return holders[0]
    return None

