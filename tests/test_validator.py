"""Schema admission and information-integrity checks.

The key-conflict expectation below was hand-derived by enumerating the
uniqueness predicate over a minimal two-event trace: equal keys with a
differing out parameter is exactly the rejected shape.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from compacts.ledger import Event
from compacts.validator import (
    Channel,
    IntegrityRuleSet,
    LedgerIndex,
    Parameter,
    SchemaDecl,
    check_integrity,
    validate_event_schema,
)

from scan_integrity import scan_check_integrity

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
    assert "KindMismatch" in errors_of(validate_event_schema(event, RULES))


def test_bool_is_not_an_int():
    event = ev("e1", "Admit", {"patient": "c", "count": True, "urgent": True})
    assert "KindMismatch" in errors_of(validate_event_schema(event, RULES))


def test_missing_and_extra_attributes():
    event = ev("e1", "Share", {"patient": "charlie", "extra": "x"}, emitter="bob")
    codes = errors_of(validate_event_schema(event, RULES))
    assert "MissingAttribute" in codes
    assert "ExtraAttribute" in codes


def test_emitter_not_on_channel():
    event = ev("e1", "InvestigationReport", {"case": "k1", "verdict": "ok"}, emitter="bob")
    assert "EmitterNotOnChannel" in errors_of(validate_event_schema(event, RULES))


def test_channel_membership_via_role():
    event = ev("e1", "Share", {"patient": "c", "sharer": "dana"}, emitter="dana")
    roles_of = lambda pid: ("Nurse",) if pid == "dana" else ()
    assert validate_event_schema(event, RULES, roles_of) == []
    assert "EmitterNotOnChannel" in errors_of(validate_event_schema(event, RULES))


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
