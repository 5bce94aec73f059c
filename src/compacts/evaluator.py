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
non-terminal, instance) until a pass adds no fact. This is exact: events are
fixed within a position, so a clause gains a match only from a new fact; each
transition emits a new fact (an instance enters each state at most once); and
a spawned instance is stepped in the pass that spawned it. Nothing seen lies
past the current position, so matching needs no time cutoff.

Every lifecycle rule is written once, in _Run, which reads condition matches
only through clause_matches and create_matches. Here both rescan the full
prefix with match_condition, and create_matches returns every create match
(_spawn skips keys it has). The incremental engine in incremental.py
subclasses _Run and answers them from cached semi-naive match sets: keyed
lookups, and only the create matches that are new since the last pass. Its
run is handed on from state to state; a superseded state replays its trace.
The two matchers are a differential pair whose agreement is a tested
property, so keep them independent of each other.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .governance import EMPTY_ORGANIZATION, Organization, counts_as_facts_for_event
from .lang import ast
from .lang.checks import check_well_formedness
from .ledger import Block, Chain, Event, Position, Scalar, verify_chain
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


@dataclass(frozen=True)
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
    """Everything the evaluator concluded from a processed chain prefix."""

    spec: ast.CompactSpec
    org: Organization
    instances: dict[tuple[str, Bindings], NormInstance]
    facts: tuple[DerivedFact, ...]
    frontier: Position
    trace: tuple[tuple[Position, Event], ...]
    caches: object = field(default=None, compare=False, repr=False)  # the run that froze this state

    def instances_in_order(self) -> list[NormInstance]:
        return sorted(
            self.instances.values(),
            key=lambda i: (i.norm_id, bindings_sort_key(i.key_bindings)),
        )


def _report_order(fact: DerivedFact) -> tuple:
    return (fact.witness, fact.name, bindings_sort_key(fact.bindings))


class _Run:
    """Mutable working state of one evaluation; the one copy of the lifecycle."""

    def __init__(self, spec: ast.CompactSpec, org: Organization):
        self.spec = spec
        self.org = org
        self.trace: list[tuple[Position, Event]] = []
        self.facts: list[DerivedFact] = []
        self._fact_keys: set[tuple[str, Bindings]] = set()
        self.instances: dict[tuple[str, Bindings], NormInstance] = {}
        # keys of the non-terminal instances, in creation order
        self.live: dict[tuple[str, Bindings], None] = {}

    def add_fact(self, fact: DerivedFact) -> bool:
        key = (fact.name, fact.bindings)
        if key in self._fact_keys:
            return False
        self._fact_keys.add(key)
        bisect.insort(self.facts, fact, key=_report_order)
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

    def process_block(self, block: Block) -> Position:
        """Lapses at the block boundary, then each event in order; returns
        the last position processed."""
        height = block.header.index
        frontier = Position(height, -1)
        self._lapse(frontier)
        self._fixpoint()
        for offset, event in enumerate(block.events):
            frontier = Position(height, offset)
            self.process_event(frontier, event)
        return frontier

    def process_event(self, pos: Position, event: Event) -> None:
        self.trace.append((pos, event))
        for fact in counts_as_facts_for_event(pos, event, self.spec.counts_as, self.org):
            self.add_fact(fact)
        self._fixpoint()

    def _lapse(self, now: Position) -> None:
        for key in list(self.live):
            inst = self.instances[key]
            norm = self.spec.norm(inst.norm_id)
            if norm.kind != ast.COMMITMENT:
                continue
            if (
                inst.state is NormState.ACTIVE
                and norm.expiry_blocks is not None
                and now.block_index > inst.created_at.block_index + norm.expiry_blocks
            ):
                self._transition(key, replace(inst, state=NormState.EXPIRED, closed_at=now), now)
            elif (
                inst.state is NormState.DETACHED
                and now.block_index > inst.detached_at.block_index + norm.deadline_blocks
            ):
                self._transition(key, replace(inst, state=NormState.VIOLATED, closed_at=now), now)

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
                self.instances[key] = NormInstance(
                    norm_id=norm.id,
                    key_bindings=match.bindings,
                    state=NormState.DETACHED if detach_on_create else NormState.ACTIVE,
                    created_at=match.witness,
                    detached_at=match.witness if detach_on_create else None,
                )
                self.live[key] = None
                if detach_on_create:
                    self._emit(norm.id, match.bindings, NormState.DETACHED, match.witness)

    def _transitions(self) -> None:
        for key in list(self.live):
            inst = self.instances[key]
            norm = self.spec.norm(inst.norm_id)
            if norm.kind == ast.COMMITMENT:
                self._step_commitment(key, inst, norm)
            else:
                self._step_prohibition(key, inst, norm)

    def _step_commitment(self, key, inst: NormInstance, norm: ast.NormDecl) -> None:
        base = inst.binding_map
        if inst.state is NormState.ACTIVE and norm.antecedent is not None:
            matches = self.clause_matches(norm, "antecedent", base)
            if matches:
                at = max(inst.created_at, matches[0].witness)
                self._transition(key, replace(inst, state=NormState.DETACHED, detached_at=at), at)
                return
        matches = self.clause_matches(norm, "consequent", base)
        if matches:
            at = max(inst.created_at, matches[0].witness)
            updated = replace(
                inst,
                state=NormState.SATISFIED,
                closed_at=at,
                # early performance discharges straight from Active; the
                # commitment is consummated at its discharge point
                detached_at=inst.detached_at if inst.detached_at is not None else at,
            )
            self._transition(key, updated, at)

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
            self._transition(
                key,
                replace(
                    inst,
                    state=NormState.VIOLATED,
                    closed_at=violation.witness,
                    violating_event=event.event_id,
                ),
                violation.witness,
            )
        elif closure is not None:
            self._transition(
                key, replace(inst, state=NormState.SATISFIED, closed_at=closure.witness), closure.witness
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
        self.instances[key] = updated
        if updated.is_terminal():
            del self.live[key]
        self._emit(updated.norm_id, updated.key_bindings, updated.state, at)

    def _emit(self, norm_id: str, bindings: Bindings, state: NormState, at: Position) -> None:
        self.add_fact(DerivedFact(norm_state_fact_name(state.value, norm_id), bindings, at))

    def freeze(self, frontier: Position) -> EvalState:
        # the run may go on to mutate its instance table; each state keeps a copy
        return EvalState(
            spec=self.spec,
            org=self.org,
            instances=dict(self.instances),
            facts=tuple(self.facts),
            frontier=frontier,
            trace=tuple(self.trace),
            caches=self,
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
        frontier = run.process_block(block)
    return run.freeze(frontier)


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

