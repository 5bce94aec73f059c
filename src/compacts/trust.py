"""Evidential trust from terminal norm outcomes.

Trust is a function of the evaluated state, like the derived facts: every
party recomputes it from the chain, so it follows the active chain through a
reorg. A principal's score for a norm follows the Beta mean (s+1)/(s+v+2):
1/2 with no evidence, strictly up on each satisfaction, strictly down on each
violation, never reaching 0 or 1. Expired instances are trust-neutral: the
obligation never came due. The formula is deliberately the simplest one with
the right directionality; swap it out here if a richer model is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluator import EvalState, NormState, resolve_party


@dataclass(frozen=True)
class TrustScore:
    principal: str
    norm_id: str
    satisfied: int
    violated: int

    @property
    def score(self) -> float:
        return (self.satisfied + 1) / (self.satisfied + self.violated + 2)


def trust_report(state: EvalState) -> list[TrustScore]:
    """One row per (subject principal, norm id) with at least one Satisfied
    or Violated instance, sorted by principal then norm id."""
    counts: dict[tuple[str, str], tuple[int, int]] = {}
    for instance in state.instances.values():
        if instance.state not in (NormState.SATISFIED, NormState.VIOLATED):
            continue
        norm = state.spec.norm(instance.norm_id)
        principal = resolve_party(norm.subject, instance, state.org)
        if principal is None:
            continue
        pair = (principal, instance.norm_id)
        s, v = counts.get(pair, (0, 0))
        counts[pair] = (s + 1, v) if instance.state is NormState.SATISFIED else (s, v + 1)
    return [
        TrustScore(principal=principal, norm_id=norm_id, satisfied=s, violated=v)
        for (principal, norm_id), (s, v) in sorted(counts.items())
    ]
