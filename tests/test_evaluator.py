"""Condition matching and the norm lifecycle over concrete chains.

Expected Before/And match sets are checked against a brute-force oracle that
enumerates event-pair position assignments directly, independent of the
recursive matcher.
"""

import pytest

from compacts.evaluator import (
    ChainInvalid,
    NormState,
    SpecIllFormed,
    evaluate,
)
from compacts.fileformats import build_report
from compacts.governance import Organization
from compacts.incremental import apply_block, initial_state
from compacts.lang import parse_compact
from compacts.lang.ast import And, Before, EventPattern, Constraint, Variable, Literal
from compacts.ledger import Block, Chain, Event, Position
from compacts.matching import match_condition
from compacts.trust import trust_report

from conftest import (
    HOSPITAL_ROLES,
    HOSPITAL_ROSTER,
    build_chain,
    hospital_events,
    signed_event,
)


def pattern(event_type, **constraints):
    return EventPattern(
        event_type=event_type,
        constraints=tuple(
            Constraint(k, v if isinstance(v, (Variable, Literal)) else Variable(v))
            for k, v in constraints.items()
        ),
    )


def trace_of(*events):
    return [(Position(1, i), e) for i, e in enumerate(events)]


def ev(event_id, event_type, attributes, emitter="hospital"):
    return Event.make(event_id, event_type, attributes, emitter)


# --- match_condition --------------------------------------------------------


def test_single_share_pattern_match():
    trace = trace_of(ev("e1", "Share", {"patient": "charlie", "sharer": "bob"}))
    matches = match_condition(pattern("Share", patient="p", sharer="s"), trace)
    assert len(matches) == 1
    assert dict(matches[0].bindings) == {"p": "charlie", "s": "bob"}
    assert matches[0].witness == Position(1, 0)


def test_and_with_contradictory_equality_is_empty():
    trace = trace_of(
        ev("e1", "Admit", {"patient": "charlie", "nurse": "bob"}),
        ev("e2", "Consent", {"patient": "dana"}),
    )
    condition = And(pattern("Admit", patient="p", nurse="n"), pattern("Consent", patient="p"))
    assert match_condition(condition, trace) == []


def _brute_force_before(left, right, trace):
    """Oracle: enumerate all position pairs directly."""
    found = set()
    for i, (pos_a, event_a) in enumerate(trace):
        for j, (pos_b, event_b) in enumerate(trace):
            if not pos_a < pos_b:
                continue
            from compacts.matching import match_event_pattern, freeze_bindings

            bound_a = match_event_pattern(left, event_a, {})
            if bound_a is None:
                continue
            bound_b = match_event_pattern(right, event_b, bound_a)
            if bound_b is None:
                continue
            found.add((freeze_bindings(bound_b), pos_b))
    return found


@pytest.mark.parametrize("consent_first", [True, False])
def test_before_agrees_with_brute_force_enumeration(consent_first):
    consent = ev("e-c", "Consent", {"patient": "charlie"})
    share = ev("e-s", "Share", {"patient": "charlie", "sharer": "bob"})
    trace = trace_of(*([consent, share] if consent_first else [share, consent]))
    left = pattern("Consent", patient="p")
    right = pattern("Share", patient="p", sharer="s")
    got = {(m.bindings, m.witness) for m in match_condition(Before(left, right), trace)}
    assert got == _brute_force_before(left, right, trace)
    assert bool(got) == consent_first


def test_before_requires_strict_order_not_mere_presence():
    same_block = trace_of(
        ev("e1", "Share", {"patient": "p1", "sharer": "bob"}),
        ev("e2", "Consent", {"patient": "p1"}),
    )
    condition = Before(pattern("Consent", patient="p"), pattern("Share", patient="p", sharer="s"))
    assert match_condition(condition, same_block) == []


# --- lifecycle over chains ---------------------------------------------------


@pytest.fixture(scope="module")
def org():
    return Organization.make("hospital", HOSPITAL_ROLES)


def test_violation_narrative(hospital_spec, org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    state = evaluate(chain, hospital_spec, org)
    instances = {i.norm_id: i for i in state.instances_in_order()}

    p1 = instances["P1"]
    assert dict(p1.key_bindings) == {"patient": "charlie", "nurse": "bob"}
    assert p1.state is NormState.VIOLATED
    assert p1.violating_event == "e1"
    assert p1.closed_at == Position(2, 0)

    assert any(f.name == "violated(P1)" for f in state.facts)

    c1 = instances["C1"]
    assert dict(c1.key_bindings) == {"patient": "charlie"}
    assert c1.created_at == Position(2, 0)  # activated by the violation itself
    assert c1.detached_at == Position(3, 0)  # the complaint
    assert c1.state is NormState.SATISFIED
    assert c1.closed_at == Position(4, 0)  # the report


def test_compliant_narrative(hospital_spec, org):
    _, compliant = hospital_events()
    chain = build_chain(compliant)
    state = evaluate(chain, hospital_spec, org)
    instances = state.instances_in_order()
    assert [i.norm_id for i in instances] == ["P1"]
    p1 = instances[0]
    assert p1.state is NormState.SATISFIED
    assert p1.closed_at == Position(4, 0)  # terminal at the discharge
    assert p1.violating_event is None


def test_consent_after_share_does_not_exempt(hospital_spec, org):
    roster = HOSPITAL_ROSTER
    groups = [
        [signed_event("e0", "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital", roster)],
        [signed_event("e1", "Share", {"patient": "charlie", "sharer": "bob"}, "bob", roster),
         signed_event("e2", "Consent", {"patient": "charlie"}, "charlie", roster)],
    ]
    state = evaluate(build_chain(groups), hospital_spec, org)
    (p1,) = [i for i in state.instances_in_order() if i.norm_id == "P1"]
    assert p1.state is NormState.VIOLATED


def test_same_position_exemption_does_not_cover(hospital_spec, org):
    # consent and share in the same block: consent at offset 0 covers,
    # at offset 1 it does not
    roster = HOSPITAL_ROSTER
    covered = [
        [signed_event("e0", "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital", roster)],
        [signed_event("e1", "Consent", {"patient": "charlie"}, "charlie", roster),
         signed_event("e2", "Share", {"patient": "charlie", "sharer": "bob"}, "bob", roster)],
    ]
    state = evaluate(build_chain(covered), hospital_spec, org)
    (p1,) = state.instances_in_order()
    assert p1.state is NormState.ACTIVE  # exempt, still in force until discharge


def test_share_before_admission_is_out_of_scope(hospital_spec, org):
    roster = HOSPITAL_ROSTER
    groups = [
        [signed_event("e0", "Share", {"patient": "charlie", "sharer": "bob"}, "bob", roster)],
        [signed_event("e1", "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital", roster)],
        [signed_event("e2", "Discharge", {"patient": "charlie"}, "hospital", roster)],
    ]
    state = evaluate(build_chain(groups), hospital_spec, org)
    (p1,) = state.instances_in_order()
    assert p1.state is NormState.SATISFIED  # closed by discharge, not violated


SAME_POSITION_SPEC = """compact Tie context org {
  roles R;
  schema A(x: text key);
  schema B(x: text key, tag: text out);
  channel m members R carries A, B;
  prohibition P subject R object R {
    create on A(x);
    forbids B(x, tag: "leak");
    until B(x);
  }
}"""


def fold_apply_block(chain, spec, org):
    state = initial_state(spec, org)
    for block in chain.blocks[1:]:
        state = apply_block(state, block)
    return state


@pytest.mark.parametrize("engine", [evaluate, fold_apply_block], ids=["evaluate", "apply_block"])
def test_forbidden_act_at_the_closing_position_is_a_violation(engine):
    # one event is both the forbidden act and the until closure: a violation
    # is never hidden by a closure at the same position
    spec = parse_compact(SAME_POSITION_SPEC)
    org = Organization.make("org", {"r": ["R"]})
    roster = {"r": "rk"}
    chain = build_chain([
        [signed_event("e0", "A", {"x": "v"}, "r", roster)],
        [signed_event("e1", "B", {"x": "v", "tag": "leak"}, "r", roster)],
    ])
    (inst,) = engine(chain, spec, org).instances_in_order()
    assert inst.state is NormState.VIOLATED
    assert inst.closed_at == Position(2, 0)
    assert inst.violating_event == "e1"


DEADLINE_SPEC = """compact Deadlines context org {
  roles R, S;
  schema Open(case: text key);
  schema Ask(case: text key);
  schema Answer(case: text key);
  channel m members R, S carries Open, Ask, Answer;
  commitment K subject R object S {
    create on Open(case);
    antecedent Ask(case);
    consequent Answer(case) within 2 blocks;
    expires after 3 blocks;
  }
}"""


def deadline_case(groups):
    spec = parse_compact(DEADLINE_SPEC)
    org = Organization.make("org", {"r": ["R"], "s": ["S"]})
    roster = {"r": "rk", "s": "sk"}
    serial = iter(range(100))

    def make(event_type):
        return signed_event(f"e{next(serial)}", event_type, {"case": "k1"}, "r", roster)

    chain = build_chain([[make(t) for t in kinds] for kinds in groups])
    return evaluate(chain, spec, org)


def test_commitment_deadline_violation_fires_at_block_boundary():
    # detach in block 1 (Ask); no answer by block 3 end; lapse at block 4
    state = deadline_case([["Open", "Ask"], [], [], []])
    (inst,) = state.instances_in_order()
    assert inst.state is NormState.VIOLATED
    assert inst.closed_at == Position(4, -1)
    assert inst.violating_event is None
    assert any(f.name == "violated(K)" and f.witness == Position(4, -1) for f in state.facts)


def test_answer_inside_deadline_satisfies():
    state = deadline_case([["Open", "Ask"], [], ["Answer"]])
    (inst,) = state.instances_in_order()
    assert inst.state is NormState.SATISFIED


def test_answer_in_lapsing_block_is_too_late():
    # lapse fires at the boundary of block 4, before its events
    state = deadline_case([["Open", "Ask"], [], [], ["Answer"]])
    (inst,) = state.instances_in_order()
    assert inst.state is NormState.VIOLATED


def test_expiry_without_detach():
    state = deadline_case([["Open"], [], [], [], []])
    (inst,) = state.instances_in_order()
    assert inst.state is NormState.EXPIRED
    assert inst.closed_at == Position(5, -1)
    assert inst.detached_at is None


def test_ask_inside_expiry_window_prevents_expiry():
    state = deadline_case([["Open"], [], ["Ask"], [], [], []])
    (inst,) = state.instances_in_order()
    assert inst.state is NormState.VIOLATED  # detached, then deadline lapsed
    assert inst.detached_at == Position(3, 0)
    assert inst.closed_at == Position(6, -1)


def test_early_performance_discharges_before_detach():
    state = deadline_case([["Open"], ["Answer"]])
    (inst,) = state.instances_in_order()
    assert inst.state is NormState.SATISFIED
    assert inst.detached_at == inst.closed_at  # consummated at discharge


def test_evaluation_is_deterministic(hospital_spec, org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    assert evaluate(chain, hospital_spec, org) == evaluate(chain, hospital_spec, org)


def test_evaluation_leaves_the_chain_unchanged(hospital_spec, org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    snapshot = Chain(blocks=chain.blocks)
    evaluate(chain, hospital_spec, org)
    assert chain == snapshot


def test_invalid_chain_is_refused(hospital_spec, org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    blocks = list(chain.blocks)
    blocks[2] = Block(blocks[2].header, ())
    with pytest.raises(ChainInvalid):
        evaluate(Chain(blocks=tuple(blocks)), hospital_spec, org)


def test_ill_formed_spec_is_refused(org):
    bad = parse_compact(
        "compact T context org { roles R; schema A(x: text key); "
        "channel m members R carries A; "
        "commitment K subject R: x object R: x { create on A(x); "
        "consequent A(x) within 0 blocks; } }"
    )
    with pytest.raises(SpecIllFormed):
        evaluate(build_chain([]), bad, org)


def test_early_consent_soundness_multiple_forbidden_matches():
    """If every forbidden match has a strictly earlier compatible exemption
    match, the prohibition is never violated."""
    spec = parse_compact((__import__("conftest").DEMOS / "datatrust.cpt").read_text())
    org = Organization.make("steward", {"steward": ["Steward"], "ana": ["Analyst"], "sam": ["Subject"]})
    roster = {"steward": "stk", "ana": "ak", "sam": "sk"}

    def make(i, event_type, attributes, emitter):
        return signed_event(f"e{i}", event_type, attributes, emitter, roster)

    groups = [
        [make(0, "Grant", {"person": "sam", "analyst": "ana"}, "steward")],
        [make(1, "OptIn", {"person": "sam", "scope": "full"}, "sam")],
        [make(2, "Export", {"person": "sam", "analyst": "ana"}, "ana")],
        [make(3, "Emergency", {"person": "sam"}, "sam"),
         make(4, "Export", {"person": "sam", "analyst": "ana"}, "ana")],
        [make(5, "Export", {"person": "sam", "analyst": "ana"}, "ana")],
    ]
    state = evaluate(build_chain(groups), spec, org)
    (no_export,) = [i for i in state.instances_in_order() if i.norm_id == "NoExport"]
    assert no_export.state is NormState.ACTIVE  # three exports, all covered


# --- instance table ----------------------------------------------------------


def test_query_filters(hospital_spec, org):
    violation, _ = hospital_events()
    state = evaluate(build_chain(violation), hospital_spec, org)
    everything = state.instances_in_order()

    violated = [i for i in everything if i.state is NormState.VIOLATED]
    assert [i.norm_id for i in violated] == ["P1"]

    assert [i for i in everything if i.norm_id == "Nope"] == []

    assert [i.norm_id for i in everything] == ["C1", "P1"]  # stable order
    assert everything == state.instances_in_order()


PING_CPT = """
compact Heartbeat context monitor {
  roles Monitor;
  schema Ping(seq: int key, urgent: bool key);
  schema Pong(seq: int key);
  channel wire members Monitor carries Ping, Pong;
  commitment C subject Monitor object Monitor {
    create on Ping(seq, urgent);
    consequent Pong(seq) within 5 blocks;
  }
}
"""


def test_int_keys_sort_by_value_and_bool_keys_false_first():
    spec = parse_compact(PING_CPT)
    keys = [(10, True), (-1, False), (2, True), (-10, False), (0, True), (0, False)]
    events = [ev(f"e{i}", "Ping", {"seq": seq, "urgent": urgent}) for i, (seq, urgent) in enumerate(keys)]
    chain = build_chain([events])
    state = evaluate(chain, spec)
    expected = [(-10, False), (-1, False), (0, False), (0, True), (2, True), (10, True)]
    assert [(i.binding_map["seq"], i.binding_map["urgent"]) for i in state.instances_in_order()] == expected
    report = build_report(state, chain, trust_report(state))
    assert [(i["bindings"]["seq"], i["bindings"]["urgent"]) for i in report["instances"]] == expected
