"""Beta-mean trust scores from terminal outcomes."""

from fractions import Fraction

import pytest

from compacts.evaluator import NormInstance, NormState, evaluate
from compacts.ledger import Position
from compacts.trust import DoubleCount, TrustLedger, TrustScore, trust_report, update_trust

from conftest import build_chain, hospital_events


def make_instance(norm_id, case, state):
    return NormInstance(
        norm_id=norm_id,
        key_bindings=(("case", case),),
        state=state,
        created_at=Position(1, 0),
        closed_at=Position(2, 0),
        detached_at=Position(1, 0) if norm_id.startswith("C") else None,
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


def test_update_trust_counts_and_ignores_expired():
    ledger = update_trust(
        TrustLedger(),
        [
            (make_instance("N", "a", NormState.SATISFIED), "p"),
            (make_instance("N", "b", NormState.VIOLATED), "p"),
            (make_instance("N", "c", NormState.EXPIRED), "p"),
        ],
    )
    (row,) = ledger.scores()
    assert (row.satisfied, row.violated) == (1, 1)
    assert row.score == 0.5


def test_double_count_is_an_error():
    first = make_instance("N", "a", NormState.SATISFIED)
    ledger = update_trust(TrustLedger(), [(first, "p")])
    with pytest.raises(DoubleCount):
        update_trust(ledger, [(first, "p")])


def test_non_terminal_outcomes_are_rejected():
    active = NormInstance("N", (("case", "x"),), NormState.ACTIVE, Position(1, 0))
    with pytest.raises(ValueError):
        update_trust(TrustLedger(), [(active, "p")])


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
