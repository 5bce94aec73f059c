"""Beta-mean trust scores from terminal outcomes."""

from fractions import Fraction

import pytest

from compacts.evaluator import EvalState, NormInstance, NormState, evaluate
from compacts.governance import EMPTY_ORGANIZATION
from compacts.lang import parse_compact
from compacts.ledger import Position
from compacts.trust import TrustScore, trust_report

from conftest import build_chain, hospital_events

# two commitments whose subject is bound by the instance's p
TALLY_SPEC = parse_compact(
    """
    compact T context c {
      roles R;
      schema A(case: text key, p: text out);
      channel m members R carries A;
      commitment N subject R: p object R: p {
        create on A(case, p);
        consequent A(case, p) within 3 blocks;
      }
      commitment M subject R: p object R: p {
        create on A(case, p);
        consequent A(case, p) within 3 blocks;
      }
    }
    """
)


def make_instance(norm_id, case, principal, state):
    return NormInstance(
        norm_id=norm_id,
        key_bindings=(("case", case), ("p", principal)),
        state=state,
        created_at=Position(1, 0),
        detached_at=Position(1, 0),
        closed_at=None if state in (NormState.ACTIVE, NormState.DETACHED) else Position(2, 0),
    )


def test_no_observations_means_one_half():
    assert TrustScore("p", "N", 0, 0).score == 0.5


def test_three_one_score_is_two_thirds():
    score = TrustScore("p", "N", 3, 1).score
    assert score == pytest.approx(4 / 6)


def test_added_violation_strictly_decreases():
    assert TrustScore("p", "N", 3, 2).score < TrustScore("p", "N", 3, 1).score
    assert TrustScore("p", "N", 4, 1).score > TrustScore("p", "N", 3, 1).score


def test_bounds_are_open():
    for s in range(0, 12):
        for v in range(0, 12):
            score = TrustScore("p", "N", s, v).score
            assert 0 < score < 1


def test_trust_report_tallies_per_subject_and_norm_and_ignores_expired():
    instances = [
        make_instance("N", "a", "p", NormState.SATISFIED),
        make_instance("N", "b", "p", NormState.VIOLATED),
        make_instance("N", "c", "p", NormState.EXPIRED),
        make_instance("N", "d", "p", NormState.SATISFIED),
        make_instance("N", "e", "q", NormState.VIOLATED),
        make_instance("N", "f", "q", NormState.DETACHED),
        make_instance("M", "g", "p", NormState.SATISFIED),
        make_instance("M", "h", "r", NormState.EXPIRED),  # r has no Satisfied or Violated
        make_instance("M", "i", "r", NormState.ACTIVE),
    ]
    state = EvalState(
        spec=TALLY_SPEC,
        org=EMPTY_ORGANIZATION,
        instances={(i.norm_id, i.key_bindings): i for i in instances},
        facts=(),
        frontier=Position(2, 0),
        trace=(),
    )
    rows = trust_report(state)
    assert [(r.principal, r.norm_id, r.satisfied, r.violated) for r in rows] == [
        ("p", "M", 1, 0),
        ("p", "N", 2, 1),
        ("q", "N", 0, 1),
    ]
    assert rows[1].score == 0.6


def test_violation_scenario_report(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    state = evaluate(build_chain(violation), hospital_spec, hospital_org)
    rows = {(r.principal, r.norm_id): r for r in trust_report(state)}
    bob = rows[("bob", "P1")]
    assert (bob.satisfied, bob.violated) == (0, 1)
    assert round(bob.score, 6) == 0.333333
    hospital = rows[("hospital", "C1")]  # bare `subject Hospital` resolves by role
    assert (hospital.satisfied, hospital.violated) == (1, 0)
    assert round(hospital.score, 6) == 0.666667


def test_compliant_scenario_report(hospital_spec, hospital_org):
    _, compliant = hospital_events()
    state = evaluate(build_chain(compliant), hospital_spec, hospital_org)
    rows = trust_report(state)
    assert [(r.principal, r.norm_id, r.satisfied, r.violated) for r in rows] == [
        ("bob", "P1", 1, 0)
    ]
    assert round(rows[0].score, 6) == 0.666667


def test_principal_without_history_is_absent(hospital_spec, hospital_org):
    _, compliant = hospital_events()
    state = evaluate(build_chain(compliant), hospital_spec, hospital_org)
    principals = {r.principal for r in trust_report(state)}
    assert "charlie" not in principals
    assert "alice" not in principals


def test_formula_against_exact_arithmetic():
    for s in range(0, 11):
        for v in range(0, 11 - s):
            expected = Fraction(s + 1, s + v + 2)
            assert TrustScore("p", "N", s, v).score == pytest.approx(float(expected), abs=1e-12)


def test_report_is_deterministic(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    state = evaluate(build_chain(violation), hospital_spec, hospital_org)
    assert trust_report(state) == trust_report(state)
