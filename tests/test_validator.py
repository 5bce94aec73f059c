"""Schema admission and information-integrity checks.

The key-conflict expectation below was hand-derived by enumerating the
uniqueness predicate over a minimal two-event trace: equal keys with a
differing out parameter is exactly the rejected shape.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from compacts.governance import ruleset_from_spec
from compacts.lang import parse_compact
from compacts.ledger import Event
from compacts.validator import (
    AdmissionError,
    Channel,
    IntegrityRuleSet,
    LedgerIndex,
    Parameter,
    SchemaDecl,
    check_integrity,
    validate_event_schema,
)

from conftest import DEMOS
from scan_integrity import scan_check_integrity, scan_validate_event_schema

RULES = IntegrityRuleSet(
    schemas=(
        SchemaDecl(
            "InvestigationReport",
            (
                Parameter("case", "text", "key"),
                Parameter("verdict", "text", "out"),
            ),
        ),
        SchemaDecl(
            "Share",
            (
                Parameter("patient", "text", "key"),
                Parameter("sharer", "text", "key"),
            ),
        ),
        SchemaDecl(
            "Followup",
            (
                Parameter("visit", "text", "key"),
                Parameter("patient", "text", "in"),
            ),
        ),
        SchemaDecl(
            "Admit",
            (
                Parameter("patient", "text", "key"),
                Parameter("count", "int", "out"),
                Parameter("urgent", "bool", "out"),
            ),
        ),
    ),
    channels=(
        Channel("clinical", ("bob", "hospital", "Nurse"), ("Share", "Admit", "Followup")),
        Channel("oversight", ("hospital",), ("InvestigationReport",)),
    ),
)


def ev(event_id, event_type, attributes, emitter="hospital"):
    return Event.make(event_id, event_type, attributes, emitter)


def errors_of(result):
    return [e.code for e in result]


def test_matching_event_on_channel_is_ok():
    share = ev("e1", "Share", {"patient": "charlie", "sharer": "bob"}, emitter="bob")
    assert validate_event_schema(share, RULES) == []


def test_unknown_event_type():
    event = ev("e1", "Gossip", {"patient": "charlie"})
    assert errors_of(validate_event_schema(event, RULES)) == ["UnknownEventType"]


def test_kind_mismatch_int_for_text():
    event = ev("e1", "Share", {"patient": 7, "sharer": "bob"}, emitter="bob")
    assert validate_event_schema(event, RULES) == [AdmissionError("KindMismatch", "patient")]


def test_bool_is_not_an_int():
    event = ev("e1", "Admit", {"patient": "c", "count": True, "urgent": True})
    assert validate_event_schema(event, RULES) == [AdmissionError("KindMismatch", "count")]


def test_missing_and_extra_attributes():
    event = ev("e1", "Share", {"patient": "charlie", "extra": "x"}, emitter="bob")
    assert validate_event_schema(event, RULES) == [
        AdmissionError("MissingAttribute", "sharer"),
        AdmissionError("ExtraAttribute", "extra"),
    ]


def test_emitter_not_on_channel():
    event = ev("e1", "InvestigationReport", {"case": "k1", "verdict": "ok"}, emitter="bob")
    assert validate_event_schema(event, RULES) == [AdmissionError("EmitterNotOnChannel", "bob")]


def test_channel_membership_via_role():
    event = ev("e1", "Share", {"patient": "c", "sharer": "dana"}, emitter="dana")
    roles_of = lambda pid: ("Nurse",) if pid == "dana" else ()
    assert validate_event_schema(event, RULES, roles_of) == []
    assert validate_event_schema(event, RULES) == [AdmissionError("EmitterNotOnChannel", "dana")]
    assert validate_event_schema(event, RULES, lambda pid: ("Patient",)) == [
        AdmissionError("EmitterNotOnChannel", "dana")
    ]


def test_a_type_on_two_channels_admits_the_members_of_either():
    # Report rides both channels; each emitter is a member of one only,
    # directly or through a role
    rules = IntegrityRuleSet(
        schemas=(SchemaDecl("Report", (Parameter("case", "text", "key"),)),),
        channels=(Channel("desk", ("Clerk",), ("Report",)), Channel("board", ("erin", "Chair"), ("Report",))),
    )
    held = {"carl": ("Clerk",), "cleo": ("Chair",)}
    roles_of = lambda pid: held.get(pid, ())
    for emitter in ("carl", "cleo", "erin"):
        report = ev("e1", "Report", {"case": "k1"}, emitter=emitter)
        assert validate_event_schema(report, rules, roles_of) == []
    stranger = ev("e1", "Report", {"case": "k1"}, emitter="sam")
    assert validate_event_schema(stranger, rules, roles_of) == [
        AdmissionError("EmitterNotOnChannel", "sam")
    ]


def test_key_conflict_on_out_parameter():
    first = ev("e1", "InvestigationReport", {"case": "k1", "verdict": "negligent"})
    second = ev("e2", "InvestigationReport", {"case": "k1", "verdict": "excused"})
    violations = check_integrity(second, LedgerIndex(RULES, [first]))
    assert errors_of(violations) == ["KeyConflict"]
    assert "k1" in violations[0].detail


def test_same_keys_same_outs_is_ok():
    first = ev("e1", "InvestigationReport", {"case": "k1", "verdict": "negligent"})
    second = ev("e2", "InvestigationReport", {"case": "k1", "verdict": "negligent"})
    assert check_integrity(second, LedgerIndex(RULES, [first])) == []


def test_unbound_in_parameter():
    followup = ev("e1", "Followup", {"visit": "v1", "patient": "zed"})
    violations = check_integrity(followup, LedgerIndex(RULES))
    assert errors_of(violations) == ["UnboundInParameter"]
    assert "zed" in violations[0].detail


def test_in_parameter_bound_by_earlier_key():
    admit = ev("e0", "Admit", {"patient": "zed", "count": 1, "urgent": False})
    followup = ev("e1", "Followup", {"visit": "v1", "patient": "zed"})
    assert check_integrity(followup, LedgerIndex(RULES, [admit])) == []


def test_byte_identical_replay_is_not_an_integrity_matter():
    # duplicate event ids are the ledger's DuplicateEventId check
    share = ev("e1", "Share", {"patient": "c", "sharer": "bob"}, emitter="bob")
    assert check_integrity(share, LedgerIndex(RULES, [share])) == []


def _random_event(rng, serial):
    event_type = rng.choice(("InvestigationReport", "Share", "Admit", "Followup"))
    if event_type == "InvestigationReport":
        attributes = {"case": rng.choice("abc"), "verdict": rng.choice(("x", "y"))}
    elif event_type == "Share":
        attributes = {"patient": rng.choice("pq"), "sharer": rng.choice(("bob", "dana"))}
    elif event_type == "Admit":
        attributes = {"patient": rng.choice("pq"), "count": rng.randint(0, 3),
                      "urgent": rng.random() < 0.5}
    else:
        attributes = {"visit": f"v{serial}", "patient": rng.choice("pqz")}
    return ev(f"r{serial}", event_type, attributes)


def test_key_conflict_rejection_is_monotone_under_extension():
    """Acceptance 7 property: key conflicts never heal. 1,000 randomized
    prefix extensions of rejected events stay rejected."""
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        prefix = [_random_event(rng, i) for i in range(rng.randint(0, 8))]
        candidate = _random_event(rng, 99)
        verdict = check_integrity(candidate, LedgerIndex(RULES, prefix))
        conflict = [v for v in verdict if v.code == "KeyConflict"]
        if not conflict:
            continue
        for _ in range(rng.randint(1, 5)):
            prefix = prefix + [_random_event(rng, 100 + checked)]
            extended = check_integrity(candidate, LedgerIndex(RULES, prefix))
            assert any(v.code == "KeyConflict" for v in extended)
            checked += 1


def test_unbound_in_rejection_persists_unless_the_value_is_bound():
    rng = random.Random(77)
    followup = ev("f1", "Followup", {"visit": "v1", "patient": "zed"})
    prefix = []
    for serial in range(200):
        verdict = check_integrity(followup, LedgerIndex(RULES, prefix))
        binds = any(
            e.event_type == "Admit" and e.attribute_map.get("patient") == "zed" for e in prefix
        )
        if binds:
            assert verdict == []
        else:
            assert errors_of(verdict) == ["UnboundInParameter"]
        prefix.append(_random_event(rng, serial))
        if serial == 120:
            prefix.append(ev("bind", "Admit", {"patient": "zed", "count": 0, "urgent": False}))


# Count and Flag share the key slot and bind n, one as an int and one as a
# bool; Use refers to n and case. Ghost has no schema.
INDEX_RULES = IntegrityRuleSet(
    schemas=(
        SchemaDecl("Report", (Parameter("case", "text", "key"), Parameter("verdict", "text", "out"))),
        SchemaDecl("Count", (Parameter("slot", "int", "key"), Parameter("n", "int", "out"))),
        SchemaDecl("Flag", (Parameter("slot", "int", "key"), Parameter("n", "bool", "out"))),
        SchemaDecl(
            "Use",
            (Parameter("use", "text", "key"), Parameter("n", "int", "in"), Parameter("case", "text", "in")),
        ),
    ),
    channels=(),
)
ATTRIBUTES = {"Report": ("case", "verdict"), "Count": ("slot", "n"), "Flag": ("slot", "n"),
              "Use": ("use", "n", "case"), "Ghost": ("case",)}
VALUES = {"case": ("a", "b"), "verdict": ("x", "y"), "slot": (0, 1),
          "n": (0, 1, 2, True, False), "use": ("u1", "u2")}


@st.composite
def _ledger_events(draw):
    event_type = draw(st.sampled_from(sorted(ATTRIBUTES)))
    attributes = {}
    for name in ATTRIBUTES[event_type]:
        if draw(st.integers(0, 9)):  # one in ten is left out and reads as None
            attributes[name] = draw(st.sampled_from(VALUES[name]))
    return ev("e", event_type, attributes)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(ledger=st.lists(_ledger_events(), max_size=12))
@example(ledger=[ev("e", "Report", {"case": "a", "verdict": "x"}),
                 ev("e", "Report", {"case": "a", "verdict": "y"})])  # KeyConflict
@example(ledger=[ev("e", "Report", {"case": "a", "verdict": "x"}),
                 ev("e", "Report", {"case": "a", "verdict": "x"}),
                 ev("e", "Report", {"case": "a", "verdict": "y"}),
                 ev("e", "Report", {"case": "a", "verdict": "x"})])  # repeated keys, equal outs
@example(ledger=[ev("e", "Use", {"use": "u1", "n": 1, "case": "a"}),
                 ev("e", "Report", {"case": "a", "verdict": "x"}),
                 ev("e", "Use", {"use": "u2", "n": 2, "case": "a"})])  # UnboundInParameter
@example(ledger=[ev("e", "Count", {"slot": 0, "n": 1}),
                 ev("e", "Flag", {"slot": 0, "n": True}),
                 ev("e", "Count", {"slot": 0, "n": True}),
                 ev("e", "Flag", {"slot": 1, "n": False}),
                 ev("e", "Use", {"use": "u1", "n": 0, "case": "b"}),
                 ev("e", "Use", {"use": "u1", "n": True, "case": "b"})])  # bool and int under n
def test_index_verdicts_equal_the_scan(ledger):
    """check_integrity through a LedgerIndex kept by add() gives the
    reference scan's verdict on every ledger prefix; a copy keeps answering
    for the prefix it was taken at."""
    index = LedgerIndex(INDEX_RULES)
    middle = len(ledger) // 2
    snapshot = None
    for position, event in enumerate(ledger):
        expected = scan_check_integrity(event, ledger[:position], INDEX_RULES)
        assert check_integrity(event, index) == expected
        if position == middle:
            snapshot = index.copy()
        index.add(event)
    if snapshot is not None:
        for event in ledger:
            assert check_integrity(event, snapshot) == scan_check_integrity(
                event, ledger[:middle], INDEX_RULES
            )


def _with_edge_types(rules):
    """rules plus a schema no channel carries, a second declaration of the
    first type (the first wins), a schema that repeats a parameter name, and
    one more channel, naming a principal directly, that carries the first
    type, the repeating schema and a type no schema declares."""
    first = rules.schemas[0]
    return IntegrityRuleSet(
        schemas=rules.schemas + (
            SchemaDecl("Orphan", (Parameter("case", "text", "key"),)),
            SchemaDecl(first.event_type, (Parameter("case", "int", "key"),)),
            SchemaDecl("Twice", (Parameter("n", "int", "key"), Parameter("n", "text", "out"))),
        ),
        channels=rules.channels + (Channel("side", ("erin", "Auditor"), ("Ghost", first.event_type, "Twice")),),
    )


PLAN_RULES = {
    name: ruleset_from_spec(parse_compact((DEMOS / f"{name}.cpt").read_text()))
    for name in ("hospital", "datatrust", "peerreview")
}
PLAN_RULES.update({"test": RULES, "index": INDEX_RULES})
PLAN_RULES.update({f"{name}+edges": _with_edge_types(rules) for name, rules in list(PLAN_RULES.items())})
SAMPLE_VALUES = {"text": ("a", "b"), "int": (0, 1), "bool": (True, False)}
WRONG_KIND = {"int": (True, "1"), "bool": (1, "true"), "text": (1, 0, True)}


def _draw_event(draw, rules):
    """An event built with Event(...), so that its attribute tuple may be
    unsorted or repeat a name, and a roles_of: None, or a map that gives the
    emitter and one other principal up to two roles each."""
    types = sorted({s.event_type for s in rules.schemas} | {t for c in rules.channels for t in c.carries})
    event_type = draw(st.sampled_from(types + ["Nope"]))
    schema = rules.schema_for(event_type)
    attributes = []
    for param in schema.parameters if schema is not None else (Parameter("case", "text", "key"),):
        how = draw(st.sampled_from(("ok",) * 8 + ("missing", "mis-kinded")))
        if how != "missing":
            values = SAMPLE_VALUES[param.kind] if how == "ok" else WRONG_KIND[param.kind]
            attributes.append((param.name, draw(st.sampled_from(values))))
    if draw(st.integers(0, 4)) == 0:
        attributes.append((draw(st.sampled_from(("extra", "case", "n"))), draw(st.sampled_from(("a", 1, True)))))
    order = draw(st.sampled_from(("make", "make", "shuffled", "repeated")))
    if order == "make":
        attributes = sorted(dict(attributes).items())
    elif order == "shuffled":
        attributes = draw(st.permutations(attributes))
    elif attributes:
        attributes.insert(draw(st.integers(0, len(attributes))), draw(st.sampled_from(attributes)))
    members = sorted({m for c in rules.channels for m in c.members})
    carrying = sorted({m for c in rules.channels if event_type in c.carries for m in c.members})
    emitter = draw(st.sampled_from(carrying * 2 + members + ["dana", "sam"]))
    roles_of = None
    if draw(st.booleans()):
        held = {pid: tuple(draw(st.lists(st.sampled_from(carrying + members + ["Janitor"]), max_size=2)))
                for pid in (emitter, "dana")}
        roles_of = lambda pid: held.get(pid, ())
    return Event("e1", event_type, tuple(attributes), emitter, 0), roles_of


@st.composite
def _admission_cases(draw):
    """A rule set, an event and its roles_of, and up to three earlier events
    under the same rule set."""
    rules = PLAN_RULES[draw(st.sampled_from(sorted(PLAN_RULES)))]
    event, roles_of = _draw_event(draw, rules)
    earlier = [_draw_event(draw, rules)[0] for _ in range(draw(st.integers(0, 3)))]
    return rules, event, roles_of, earlier


def _case(rules, event_type, attributes, emitter, roles=None):
    roles_of = None if roles is None else lambda pid: roles.get(pid, ())
    return rules, Event("e1", event_type, tuple(attributes), emitter, 0), roles_of, []


EDGES = PLAN_RULES["peerreview+edges"]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_admission_cases())
@example(case=_case(EDGES, "Ghost", [("case", "a")], "erin"))  # carried, not declared
@example(case=_case(EDGES, "Twice", [("n", 1), ("n", "a")], "erin"))  # a name repeats in the schema
@example(case=_case(EDGES, "Twice", [("n", "a"), ("n", 1)], "erin"))
@example(case=_case(EDGES, "Orphan", [("case", "a")], "Editor"))  # on no channel
@example(case=_case(EDGES, "Submit", [("author", "x"), ("paper", "p")], "ann", {"ann": ("Author",)}))
@example(case=_case(EDGES, "Submit", [("author", "x"), ("paper", "p")], "erin"))  # the third channel
@example(case=_case(EDGES, "Submit", [("author", "x"), ("paper", "p")], "ann", {"ann": ("Reader",)}))
@example(case=_case(RULES, "Share", [("sharer", "b"), ("patient", "a")], "bob"))  # unsorted
@example(case=_case(RULES, "Share", [("patient", "a"), ("patient", "a"), ("sharer", "b")], "bob"))
@example(case=_case(RULES, "Share", [("patient", 1), ("patient", "a"), ("sharer", "b")], "bob"))
@example(case=_case(RULES, "Admit", [("count", True), ("patient", "a"), ("urgent", 1)], "hospital"))
@example(case=_case(RULES, "Admit", [("count", 1), ("patient", "a"), ("urgent", True)], "dana",
                    {"dana": ("Nurse",)}))
def test_plan_verdicts_equal_the_reference(case):
    """The compiled plan gives the per-call reference's exact error lists:
    codes, details and order. check_integrity and LedgerIndex.add read the
    same plan and agree with the scan."""
    rules, event, roles_of, earlier = case
    assert validate_event_schema(event, rules, roles_of) == scan_validate_event_schema(
        event, rules, roles_of
    )
    assert check_integrity(event, LedgerIndex(rules, earlier)) == scan_check_integrity(event, earlier, rules)
