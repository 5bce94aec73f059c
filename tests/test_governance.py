"""Counts-as derivation, violation-driven activation, governance events."""

import json

import pytest

from compacts.cli import EXIT_OK, main
from compacts.evaluator import NormState, evaluate
from compacts.governance import (
    Organization,
    counts_as_facts_for_event,
    ruleset_from_spec,
)
from compacts.ledger import Event, Position
from compacts.validator import LedgerIndex, check_integrity, validate_event_schema

from conftest import build_chain, hospital_events, HOSPITAL_ROSTER

TUMOR_ROSTER = {"clinic": "ck", "board": "bk", "onc": "ok"}
TUMOR_ROLES = {"clinic": ["Clinic"], "board": ["TumorBoard"], "onc": ["Oncologist"]}


def tumor_trace(asserter):
    events = [
        Event.make("e0", "Biopsy", {"tumor": "t7", "oncologist": "onc"}, "onc")
        .with_signature(TUMOR_ROSTER["onc"]),
        Event.make("e1", "Assert", {"assertion": "a1", "tumor": "t7", "finding": "benign"}, asserter)
        .with_signature(TUMOR_ROSTER[asserter]),
    ]
    return [(Position(1, i), e) for i, e in enumerate(events)]


@pytest.fixture(scope="module")
def tumor_org():
    return Organization.make("clinic", TUMOR_ROLES)


def counts_as_facts(trace, rules, org):
    return [f for pos, event in trace for f in counts_as_facts_for_event(pos, event, rules, org)]


def test_board_assertion_derives_benign_fact(tumor_spec, tumor_org):
    facts = counts_as_facts(tumor_trace("board"), tumor_spec.counts_as, tumor_org)
    assert [(f.name, dict(f.bindings)) for f in facts] == [("Benign", {"tumor": "t7"})]
    assert facts[0].witness == Position(1, 1)


def test_nonmember_assertion_derives_nothing(tumor_spec, tumor_org):
    assert counts_as_facts(tumor_trace("onc"), tumor_spec.counts_as, tumor_org) == []


def test_two_member_assertions_yield_one_fact_earliest_witness(tumor_spec):
    org = Organization.make("clinic", {"board": ["TumorBoard"], "board2": ["TumorBoard"]})
    roster = {"board": "bk", "board2": "b2k"}
    groups = [
        [Event.make("e0", "Assert", {"assertion": "a1", "tumor": "t7", "finding": "benign"}, "board")
         .with_signature(roster["board"])],
        [Event.make("e1", "Assert", {"assertion": "a2", "tumor": "t7", "finding": "benign"}, "board2")
         .with_signature(roster["board2"])],
    ]
    facts = evaluate(build_chain(groups), tumor_spec, org).facts
    assert [f.witness for f in facts if f.name == "Benign"] == [Position(1, 0)]


def test_counts_as_monotonicity_adding_rules_never_removes_facts(tumor_spec, tumor_org):
    from compacts.lang.ast import CountsAsRule, EventPattern, Constraint, Variable

    base = counts_as_facts(tumor_trace("board"), tumor_spec.counts_as, tumor_org)
    extra = CountsAsRule(
        fact="Reviewed",
        projection=(("tumor", "tumor"),),
        source=EventPattern("Assert", (Constraint("tumor", Variable("tumor")),)),
        required_role="TumorBoard",
    )
    grown = counts_as_facts(tumor_trace("board"), tumor_spec.counts_as + (extra,), tumor_org)
    assert set(base).issubset(set(grown))


def test_facts_are_reproducible_from_the_prefix(tumor_spec, tumor_org):
    chain = build_chain([[event for _, event in tumor_trace("board")]])
    once = evaluate(chain, tumor_spec, tumor_org).facts
    assert any(f.name == "Benign" for f in once)
    assert evaluate(chain, tumor_spec, tumor_org).facts == once


# --- violation-driven activation ---------------------------------------------


def test_violation_fact_spawns_governance_instance(hospital_spec, hospital_org):
    # Admit then Share without consent: P1 is violated and C1 is created
    violation, _ = hospital_events()
    state = evaluate(build_chain(violation[:2]), hospital_spec, hospital_org)
    (violated,) = [f for f in state.facts if f.name == "violated(P1)"]
    (c1,) = [i for i in state.instances_in_order() if i.norm_id == "C1"]
    assert (dict(c1.key_bindings), c1.state) == ({"patient": "charlie"}, NormState.ACTIVE)
    assert c1.created_at == violated.witness == Position(2, 0)


def test_no_violations_no_new_instances(hospital_spec, hospital_org):
    _, compliant = hospital_events()
    state = evaluate(build_chain(compliant), hospital_spec, hospital_org)
    assert [i for i in state.instances_in_order() if i.norm_id == "C1"] == []


def test_two_violations_spawn_two_distinct_instances(hospital_spec, hospital_org):
    roster = dict(HOSPITAL_ROSTER, dana="patient-dana-key")
    org = Organization.make(
        "hospital",
        {"hospital": ["Hospital"], "bob": ["Nurse"], "charlie": ["Patient"], "dana": ["Patient"]},
    )

    def ev(i, event_type, attributes, emitter):
        return Event.make(f"e{i}", event_type, attributes, emitter, i).with_signature(roster[emitter])

    groups = [
        [ev(0, "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital"),
         ev(1, "Admit", {"patient": "dana", "nurse": "bob"}, "hospital")],
        [ev(2, "Share", {"patient": "charlie", "sharer": "bob"}, "bob"),
         ev(3, "Share", {"patient": "dana", "sharer": "bob"}, "bob")],
    ]
    state = evaluate(build_chain(groups), hospital_spec, org)
    c1_keys = {dict(i.key_bindings)["patient"] for i in state.instances.values() if i.norm_id == "C1"}
    assert c1_keys == {"charlie", "dana"}


# --- built-in governance events ----------------------------------------------


def test_complaint_event_is_valid_and_detaches_c1(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    complaint = Event.make(
        "complaint-1", "Complaint", {"patient": "charlie"}, "charlie"
    ).with_signature(HOSPITAL_ROSTER["charlie"])
    rules = ruleset_from_spec(hospital_spec)
    assert validate_event_schema(complaint, rules, hospital_org.roles_of) == []
    groups = violation[:2] + [[complaint]]
    state = evaluate(build_chain(groups), hospital_spec, hospital_org)
    (c1,) = [i for i in state.instances.values() if i.norm_id == "C1"]
    assert c1.state is NormState.DETACHED


def test_sanction_event_against_builtin_schema(hospital_spec, hospital_org):
    sanction = Event.make(
        "sanction-1", "Sanction", {"against": "bob", "case": "k1"}, "hospital"
    ).with_signature(HOSPITAL_ROSTER["hospital"])
    rules = ruleset_from_spec(hospital_spec)
    assert validate_event_schema(sanction, rules, hospital_org.roles_of) == []
    assert check_integrity(sanction, LedgerIndex(rules)) == []


def test_builtins_do_not_shadow_compact_declared_schemas(hospital_spec):
    rules = ruleset_from_spec(hospital_spec)
    complaint = rules.schema_for("Complaint")
    assert [p.name for p in complaint.parameters] == ["patient"]  # compact's own
    sanction = rules.schema_for("Sanction")
    assert [p.name for p in sanction.parameters] == ["case", "against"]  # builtin
    (gov_channel,) = [c for c in rules.channels if c.name == "governance"]
    assert "Sanction" in gov_channel.carries
    assert "Complaint" not in gov_channel.carries


CLUB_CPT = """compact Club context club {
  roles Member, Board;
  schema Act(who: text key);
  channel floor members Member, Board carries Act;
  commitment S subject Member: who object Board {
    create on Act(who);
    consequent Sanction(against: who) within 10 blocks;
  }
}
"""
CLUB_NET = {
    "principals": [{"id": "club", "secret": "club-key"}, {"id": "alice", "secret": "alice-key"}],
    "peers": ["peer-1", "peer-2", "peer-3"],
    "target": "04" + "00" * 31,
    "gossip_seed": 7,
    "max_rounds": 40,
    "roles": {"alice": ["Member"]},
}
CLUB_SCENARIO = [
    {"round": 0, "event_type": "Act", "attributes": {"who": "alice"}, "emitter": "alice", "logical_ts": 0},
    {
        "round": 2,
        "event_type": "Sanction",
        "attributes": {"case": "k1", "against": "alice"},
        "emitter": "club",
        "logical_ts": 1,
    },
]


def test_a_norm_on_the_builtin_sanction_parses_and_runs(tmp_path, capsys):
    spec, net, scenario = tmp_path / "club.cpt", tmp_path / "net.json", tmp_path / "scenario.jsonl"
    spec.write_text(CLUB_CPT)
    net.write_text(json.dumps(CLUB_NET))
    scenario.write_text("".join(json.dumps(line) + "\n" for line in CLUB_SCENARIO))
    assert main(["parse", str(spec)]) == EXIT_OK
    out = tmp_path / "report.json"
    argv = ["run", "--spec", str(spec), "--scenario", str(scenario), "--net", str(net), "--out", str(out)]
    assert main(argv) == EXIT_OK
    report = json.loads(out.read_text())
    assert [(i["norm_id"], i["state"]) for i in report["instances"]] == [("S", "satisfied")]
    assert main(["trust", "--report", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "alice\tS\ts=1\tv=0\t0.666667\n"
