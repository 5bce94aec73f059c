"""Evidential trust from terminal norm outcomes.

A principal's score for a norm follows the Beta mean (s+1)/(s+v+2): 1/2 with
no evidence, strictly up on each satisfaction, strictly down on each
violation, never reaching 0 or 1. Expired instances are trust-neutral: the
obligation never came due. The formula is deliberately the simplest one with
the right directionality; swap it out here if a richer model is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .evaluator import EvalState, NormInstance, NormState, resolve_party
from .matching import Bindings


class DoubleCount(Exception):
    """A terminal instance was submitted to the tally twice."""


@dataclass(frozen=True)
class TrustScore:
    principal: str
    norm_id: str
    satisfied: int
    violated: int

    @property
    def score(self) -> float:
        return (self.satisfied + 1) / (self.satisfied + self.violated + 2)


@dataclass(frozen=True)
class TrustLedger:
    """Tallies per (principal, norm id) plus the instances already counted."""

    counts: tuple[tuple[tuple[str, str], tuple[int, int]], ...] = ()
    seen: frozenset[tuple[str, Bindings]] = frozenset()

    def count_map(self) -> dict[tuple[str, str], tuple[int, int]]:
        return dict(self.counts)

    def scores(self) -> list[TrustScore]:
        return [
            TrustScore(principal=pair[0], norm_id=pair[1], satisfied=s, violated=v)
            for pair, (s, v) in sorted(self.counts)
        ]


def update_trust(
    ledger: TrustLedger,
    outcomes: Iterable[tuple[NormInstance, str]],
) -> TrustLedger:
    """Fold newly terminal (instance, subject principal) pairs into a ledger.

    Satisfied increments s, Violated increments v, Expired is recorded but
    not tallied. Resubmitting any instance already folded in raises
    DoubleCount; the caller tracks which outcomes are new.
    """
    counts = ledger.count_map()
    seen = set(ledger.seen)
    for instance, principal in outcomes:
        if not instance.is_terminal():
            raise ValueError(f"instance {instance.key} is not terminal")
        if instance.key in seen:
            raise DoubleCount(str(instance.key))
        seen.add(instance.key)
        if instance.state is NormState.EXPIRED:
            continue
        pair = (principal, instance.norm_id)
        s, v = counts.get(pair, (0, 0))
        if instance.state is NormState.SATISFIED:
            counts[pair] = (s + 1, v)
        else:
            counts[pair] = (s, v + 1)
    return TrustLedger(counts=tuple(sorted(counts.items())), seen=frozenset(seen))


def trust_report(state: EvalState) -> list[TrustScore]:
    """One row per (subject principal, norm id) with at least one Satisfied
    or Violated instance, in stable order."""
    outcomes = []
    for instance in state.instances_in_order():
        if not instance.is_terminal():
            continue
        norm = state.spec.norm(instance.norm_id)
        principal = resolve_party(norm.subject, instance, state.org)
        if principal is None:
            continue
        outcomes.append((instance, principal))
    return update_trust(TrustLedger(), outcomes).scores()
