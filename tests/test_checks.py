"""Well-formedness diagnostics, the observability warnings among them."""

import dataclasses
import gc
import glob
import hashlib
import json
import os
import random
import re
from pathlib import Path

import pytest

from compacts.governance import Organization
from compacts.incremental import fold_chain
from compacts.lang import Diagnostic, ParseError, ast, check_well_formedness, parse_compact
from compacts.lang.parser import KEYWORDS
from compacts.ledger import GENESIS_BLOCK, Chain
from compacts.validator import Channel

from conftest import DEMOS, FIXTURES, bench_generators
from scan_checks import scan_diagnostics

WRAP = """compact T context org {{
  roles R, S;
  schema A(x: text key);
  schema B(x: text key, tag: text out);
  schema D(x: text key);
  channel m members R, S carries A, B, D;
{body}
}}
"""


def diagnostics_for(body: str):
    return check_well_formedness(parse_compact(WRAP.format(body=body)))


def codes(diags):
    return [d.code for d in diags]


def gaps(spec):
    """The messages of the observability warnings on spec."""
    return [d.message for d in check_well_formedness(spec) if d.severity == "warning"]


BUNDLED_GAPS = {
    # the analyst cannot tell whether an export is exempted or the
    # prohibition closed, and the subject sees neither its grant nor its breach
    "datatrust.cpt": [
        "norm NoExport: role Analyst cannot observe Emergency",
        "norm NoExport: role Analyst cannot observe OptIn",
        "norm NoExport: role Analyst cannot observe Purge",
        "norm NoExport: role Subject cannot observe Export",
        "norm NoExport: role Subject cannot observe Grant",
        "norm Redress: role Subject cannot observe Export",
        "norm Redress: role Subject cannot observe Grant",
    ],
    # blind review: the author never sees a review
    "peerreview.cpt": [
        "norm Decision: role Author cannot observe Review",
        "norm Publication: role Author cannot observe Review",
    ],
}


@pytest.mark.parametrize("path", sorted(glob.glob(str(DEMOS / "*.cpt"))))
def test_bundled_corpus_is_well_formed(path):
    # no errors; the only warnings are the known observability gaps
    with open(path, "r", encoding="utf-8") as handle:
        diags = check_well_formedness(parse_compact(handle.read()))
    assert [d for d in diags if d.severity == "error"] == []
    assert [d.message for d in diags if d.severity == "warning"] == BUNDLED_GAPS.get(Path(path).name, [])


def test_unbound_variable_in_consequent():
    body = """
  commitment K subject R: x object S: x {
    create on A(x);
    consequent B(x, tag: stray) within 5 blocks;
  }"""
    assert "unbound-variable" in codes(diagnostics_for(body))


def test_locally_joined_variable_is_fine():
    body = """
  commitment K subject R: x object S: x {
    create on A(x);
    consequent B(x, tag: t) and B(x, tag: t) within 5 blocks;
  }"""
    assert diagnostics_for(body) == []


def test_nonpositive_deadline():
    body = """
  commitment K subject R: x object S: x {
    create on A(x);
    consequent D(x) within 0 blocks;
  }"""
    assert "nonpositive-deadline" in codes(diagnostics_for(body))


def test_nonpositive_expiry():
    body = """
  commitment K subject R: x object S: x {
    create on A(x);
    consequent D(x) within 5 blocks;
    expires after -1 blocks;
  }"""
    assert "nonpositive-expiry" in codes(diagnostics_for(body))


def test_subject_variable_must_be_bound_by_create():
    body = """
  commitment K subject R: y object S: x {
    create on A(x);
    consequent D(x) within 5 blocks;
  }"""
    assert "unbound-variable" in codes(diagnostics_for(body))


def test_create_alternatives_must_bind_same_variables():
    body = """
  commitment K subject R: x object S: x {
    create on A(x) or B(y);
    consequent D(x) within 5 blocks;
  }"""
    assert "create-bindings-vary" in codes(diagnostics_for(body))


@pytest.mark.parametrize("create", [
    "(A(x) or B(x, tag: t)) and D(x)",  # an 'or' under an 'and': A-instances bind no t
    "D(x) and (A(x) before (B(x, tag: t) or D(x)))",
    "A(x) or (D(x) and (A(x) or B(x, tag: t)))",
])
def test_an_or_anywhere_in_create_must_bind_same_variables(create):
    body = f"""
  commitment K subject R: x object S: x {{
    create on {create};
    consequent D(x) within 5 blocks;
  }}"""
    assert "create-bindings-vary" in codes(diagnostics_for(body))


def test_create_alternatives_are_compared_once_or_is_distributed():
    # each alternative, (A(x) and B(x, t)) or (B(x, t) and B(x, t)), binds x and t
    body = """
  commitment K subject R: x object S: t {
    create on (A(x) or B(x, tag: t)) and B(x, tag: t);
    consequent D(x) within 5 blocks;
  }"""
    assert diagnostics_for(body) == []


def test_undeclared_event_type_and_role():
    body = """
  commitment K subject Q: x object S: x {
    create on A(x);
    consequent Zzz(x) within 5 blocks;
  }"""
    found = codes(diagnostics_for(body))
    assert "unknown-role" in found
    assert "unknown-event-type" in found


def test_unknown_norm_reference_in_state_fact():
    body = """
  commitment K subject R: x object S: x {
    create on violated Nope(x);
    consequent D(x) within 5 blocks;
  }"""
    assert "unknown-norm-id" in codes(diagnostics_for(body))


def test_duplicate_norm_ids():
    body = """
  commitment K subject R: x object S: x {
    create on A(x);
    consequent D(x) within 5 blocks;
  }
  commitment K subject R: x object S: x {
    create on A(x);
    consequent D(x) within 5 blocks;
  }"""
    assert "duplicate-norm-id" in codes(diagnostics_for(body))


def test_exemption_guard_must_restate_forbidden_pattern():
    body = """
  prohibition P subject R: x object S: x {
    create on A(x);
    forbids B(x);
    unless D(x) before B(x, tag: "t");
    until D(x);
  }"""
    assert "exemption-guard-mismatch" in codes(diagnostics_for(body))


def test_event_type_carried_by_no_channel():
    text = """compact T context org {
      roles R;
      schema A(x: text key);
      schema Orphan(x: text key);
      channel m members R carries A;
    }"""
    assert "event-type-not-carried" in codes(check_well_formedness(parse_compact(text)))


def test_schema_without_key_parameter():
    text = """compact T context org {
      roles R;
      schema A(x: text out);
      channel m members R carries A;
    }"""
    assert "no-key-parameter" in codes(check_well_formedness(parse_compact(text)))


def test_counts_as_projection_must_come_from_source():
    text = """compact T context org {
      roles R;
      schema A(x: text key);
      channel m members R carries A;
      counts-as F(y) from A(x) by R;
    }"""
    assert "projection-unbound" in codes(check_well_formedness(parse_compact(text)))


@pytest.mark.parametrize(
    "consequent, expected",
    [
        ("Sanction(against: x)", []),
        ("Complaint(case: x)", []),
        ("Sanction(x)", ["unknown-attribute"]),
        # an undeclared type draws its error alone, no observability warning
        ("Penalty(against: x)", ["unknown-event-type"]),
    ],
)
def test_norms_may_name_the_builtin_governance_types(consequent, expected):
    body = f"""
  commitment K subject R: x object S: x {{
    create on A(x);
    consequent {consequent} within 5 blocks;
  }}"""
    assert codes(diagnostics_for(body)) == expected


NORM_K = "commitment K subject R: x object S: x { create on A(x); consequent A(x) within 5 blocks; }"
DECLARATION_CASES = {
    "duplicate-schema": "  schema E(x: text key);\n    schema E(x: int key);",
    "no-key-parameter": "\n    schema E(x: text out);",
    "duplicate-parameter": "\n    schema E(x: text key, x: int out);",
    "fact-shadows-event": "\n    counts-as Sanction(x) from A(x) by R;",
    "unknown-event-type": "\n    channel n members R carries Z;",
    "event-type-not-carried": "\n    schema E(x: text key);",
    "duplicate-norm-id": f"  {NORM_K}\n    {NORM_K}",
}


@pytest.mark.parametrize("code", DECLARATION_CASES)
def test_a_declaration_diagnostic_points_at_its_declaration(code):
    # each case puts the declaration at fault at 8:5; a duplicate is
    # reported at its second declaration, a shadowing fact at its rule
    found = [(d.line, d.col) for d in diagnostics_for(DECLARATION_CASES[code]) if d.code == code]
    assert found == [(8, 5)]


def test_counts_as_fact_may_not_take_a_builtin_name():
    assert "fact-shadows-event" in codes(diagnostics_for("  counts-as Sanction(x) from A(x) by R;"))


KINDS = """compact T context org {{
  roles R, S;
  schema A(x: int key);
  schema B(x: bool key, n: int out);
  channel m members R, S carries A, B;
{body}
}}
"""


@pytest.mark.parametrize(
    "body, expected",
    [
        # the matcher compares as Python does, so B{x:true} would satisfy A{x:1}'s commitment
        ("create on A(x); consequent B(x) within 5 blocks;", ["variable-kind-mismatch"]),
        ("create on A(x); consequent B(x: true, n: x) within 5 blocks;", []),
        ("create on A(x); consequent B(x: 1, n: x) within 5 blocks;", ["literal-kind-mismatch"]),
        ("create on A(x: 7) and A(x); consequent B(x: false, n: 2) within 5 blocks;", []),
    ],
    ids=["variable-int-and-bool", "variable-int", "literal-int-for-bool", "literals-of-kind"],
)
def test_a_term_must_be_of_its_parameters_kind(body, expected):
    norm = f"commitment K subject R object S {{ {body} }}"
    assert codes(check_well_formedness(parse_compact(KINDS.format(body=norm)))) == expected


@pytest.mark.parametrize(
    "rule, expected",
    [("counts-as F(y) from B(x: y, n: y) by R;", ["variable-kind-mismatch"]),
     ("counts-as F(y) from B(x: y, n: 3) by R;", [])],
    ids=["bool-and-int", "bool"],
)
def test_a_counts_as_source_variable_fills_one_kind(rule, expected):
    assert codes(check_well_formedness(parse_compact(KINDS.format(body=rule)))) == expected


DERIVED_KINDS = """compact T context org {{
  roles R, S;
  schema A(x: int key);
  schema B(y: text key, x: bool out);
  schema D(y: text key, x: int out);
  channel m members R, S carries A, B, D;
  counts-as F(x) from A(x) by R;
  commitment P subject R object S {{ create on A(x); consequent D(y: "p", x) within 5 blocks; }}
{body}
}}
"""


@pytest.mark.parametrize(
    "create, expected",
    [
        # F's x and P's x are A's int x: batch evaluate keyed C by x=1, the fold by x=true
        ("fact F(x) and B(y, x)", ["variable-kind-mismatch"] * 2),
        ("fact F(x) and D(y, x)", []),
        ("violated P(x) and B(y, x)", ["variable-kind-mismatch"] * 2),
        ("violated P(x) and D(y, x)", []),
        ("fact F(x: true) and D(y, x)", ["literal-kind-mismatch"]),
        ("violated P(x: 2) and D(y, x)", []),
    ],
    ids=["fact-int-and-bool", "fact-int", "state-int-and-bool", "state-int",
         "fact-bool-literal-for-int", "state-int-literal"],
)
def test_a_fact_or_norm_state_attribute_has_the_kind_its_source_gives(create, expected):
    event_type = "B" if "B(" in create else "D"
    norm = f"""commitment C subject R object S {{
    create on {create};
    consequent {event_type}(y: "never", x) within 5 blocks;
  }}"""
    assert codes(check_well_formedness(parse_compact(DERIVED_KINDS.format(body=norm)))) == expected


@pytest.mark.parametrize(
    "rule, expected",
    [("counts-as F(x) from B(y, x) by R;", ["variable-kind-mismatch"]),
     ("counts-as F(x) from D(y, x) by R;", [])],
    ids=["second-rule-bool", "second-rule-int"],
)
def test_a_fact_attribute_has_one_kind_across_its_rules(rule, expected):
    assert codes(check_well_formedness(parse_compact(DERIVED_KINDS.format(body=rule)))) == expected


ROLE_KINDS = """compact T context org {{
  roles R, S;
  schema A(x: int key, y: text out, z: bool out);
  schema B(x: int key);
  channel m members R, S carries A, B;
  commitment C subject {roles} {{ create on A(x, y, z); consequent B(x) within 5 blocks; }}
}}
"""


@pytest.mark.parametrize(
    "roles, expected",
    [("R: x object S: y", ["role-variable-kind"]),
     ("R: y object S: z", ["role-variable-kind"]),
     ("R: y object S: y", []),
     ("R object S", [])],
    ids=["int-subject", "bool-object", "text", "bare-roles"],
)
def test_a_role_variable_fills_text_parameters(roles, expected):
    # resolve_party takes only a text binding as a principal: any other kind
    # would leave the norm's outcomes out of the trust table
    assert codes(check_well_formedness(parse_compact(ROLE_KINDS.format(roles=roles)))) == expected


@pytest.mark.parametrize(
    "rule, expected",
    [("counts-as F(a: x, a: tag) from B(x, tag) by R;", ["duplicate-fact-attribute"]),
     ("counts-as F(a: x, b: tag) from B(x, tag) by R;", [])],
    ids=["repeated", "distinct"],
)
def test_a_counts_as_rule_names_each_fact_attribute_once(rule, expected):
    # the projection would become a shorter dict, and no match would derive the fact
    assert codes(diagnostics_for(rule)) == expected


# --- observability ---------------------------------------------------------


def test_hospital_report_is_empty(hospital_spec):
    assert gaps(hospital_spec) == []


def test_patient_off_clinical_channel_flags_share(hospital_spec):
    variant = tuple(
        Channel(
            c.name,
            tuple(m for m in c.members if not (c.name == "clinical" and m == "Patient")),
            c.carries,
        )
        for c in hospital_spec.channels
    )
    found = gaps(dataclasses.replace(hospital_spec, channels=variant))
    assert "norm P1: role Patient cannot observe Share" in found
    # nothing else about the patient's oversight channel changed
    assert "norm C1: role Patient cannot observe Complaint" not in found


def test_single_channel_carrying_everything_is_clean():
    text = """compact T context org {
      roles R, S;
      schema A(x: text key);
      schema B(x: text key);
      channel m members R, S carries A, B;
      prohibition P subject R: x object S: x {
        create on A(x);
        forbids B(x);
        until A(x);
      }
    }"""
    assert gaps(parse_compact(text)) == []


def test_derived_facts_trace_to_source_event_types(tumor_spec):
    # strip the board from the pathology channel: it can no longer observe
    # Assert, the source of the Benign fact its own norm depends on
    variant = tuple(
        Channel(c.name, tuple(m for m in c.members if m != "Oncologist"), c.carries)
        for c in tumor_spec.channels
    )
    found = gaps(dataclasses.replace(tumor_spec, channels=variant))
    assert "norm N1: role Oncologist cannot observe Assert" in found


def test_norm_state_facts_trace_transitively(hospital_spec):
    # C1's create references violated(P1); cutting the patient off the
    # clinical channel must surface P1's source types under C1 as well
    variant = tuple(
        Channel(
            c.name,
            tuple(m for m in c.members if not (c.name == "clinical" and m == "Patient")),
            c.carries,
        )
        for c in hospital_spec.channels
    )
    found = gaps(dataclasses.replace(hospital_spec, channels=variant))
    assert "norm C1: role Patient cannot observe Share" in found


def test_builtin_types_ride_the_governance_channel_to_every_role():
    text = WRAP.format(body="""
  commitment K subject R: x object S: x {
    create on A(x);
    consequent Sanction(against: x) within 5 blocks;
  }""")
    assert gaps(parse_compact(text)) == []


def test_a_gap_is_a_warning_at_its_norm_after_every_error():
    # R cannot observe E; the undeclared Penalty draws its error alone
    text = WRAP.format(body="""
  schema E(x: text key);
  channel n members S carries E;
  commitment K subject R: x object S: x {
    create on E(x);
    consequent Penalty(x) within 5 blocks;
  }
  commitment L subject R: x object S: x {
    create on A(x);
    consequent B(x, tag: 3) within 5 blocks;
  }""")
    diags = check_well_formedness(parse_compact(text))
    assert [(d.severity, d.code) for d in diags] == [
        ("error", "unknown-event-type"),
        ("error", "literal-kind-mismatch"),
        ("warning", "unobservable-event-type"),
    ]
    assert diags[2] == Diagnostic(
        "warning", 10, 3, "unobservable-event-type", "norm K: role R cannot observe E"
    )


@pytest.mark.parametrize("path", sorted(glob.glob(str(DEMOS / "*.cpt"))))
def test_a_check_leaves_no_reference_cycle(path):
    # the check's tables go as soon as it returns, not at the next collection
    with open(path, "r", encoding="utf-8") as handle:
        spec = parse_compact(handle.read())
    gc.collect()
    gc.disable()
    try:
        check_well_formedness(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("workload, size", [("datatrust", 60), ("peerreview", 80)])
def test_a_fold_leaves_no_reference_cycle(workload, size):
    # a run's condition indexes go with it, not at the next collection;
    # datatrust's exemption, (OptIn or Emergency) before Export, is a tree
    blocks, config = getattr(bench_generators(), f"{workload}_inputs")(1, size)
    spec = parse_compact((DEMOS / f"{workload}.cpt").read_text())
    org = Organization.make(spec.context, config["roles"])
    chain = Chain(blocks=(GENESIS_BLOCK,) + tuple(blocks))
    check_well_formedness(spec)
    gc.collect()
    gc.disable()
    try:
        fold_chain(chain, spec, org)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- state references against the recursive reference ------------------------

REFERENCE_SPEC = """compact G context org {{
  roles R, S, T;
  schema A(x: text key, n: int out);
  schema B(x: int key, f: bool out);
  schema C(y: text key, n: int out);
  channel ab members R, S carries A, B;
  channel c members T carries C;
  counts-as F(x) from A(x) by R;
  counts-as H(x: y, n) from C(y, n) by T;
{norms}
}}
"""
_TERMS = ("x", "y", "n", '"s"', "3", "true")


def _reference_pattern(rng: random.Random, ids: list[str]) -> str:
    """An event, fact or state pattern; a state pattern names an id of the
    compact, its own included, or, rarely, an undeclared one."""
    head = rng.choice(("A", "B", "C", "fact F", "H", "state", "state", "state"))
    if head == "state":
        head = f"{rng.choice(ast.NORM_STATES)} {rng.choice(ids + ['N9'] if rng.random() < 0.1 else ids)}"
    attributes = rng.sample(("x", "y", "n", "f"), rng.randint(1, 2))
    return f"{head}({', '.join(a if rng.random() < 0.6 else f'{a}: {rng.choice(_TERMS)}' for a in attributes)})"


def _reference_condition(rng: random.Random, ids: list[str], operators=("and", "or", "before")) -> str:
    condition = _reference_pattern(rng, ids)
    for joined in range(rng.choice((0, 0, 1, 2))):
        left = f"({condition})" if joined else condition  # 'before' does not chain
        condition = f"{left} {rng.choice(operators)} {_reference_pattern(rng, ids)}"
    return condition


def reference_norms(seed: int) -> list[str]:
    """1 to 4 norms whose every clause kind may hold state references: to
    the norm itself, to one declared later and around 2- and 3-cycles. Ids
    come from a pool that may be smaller than the norms, so an id may be
    declared twice; roles may take variables, and create may hold an 'or'."""
    rng = random.Random(seed)
    count = rng.randint(1, 4)
    ids = [f"N{k}" for k in range(rng.randint(1, count))]
    norms = []
    for norm_id in (ids + [rng.choice(ids) for _ in range(count - len(ids))]):
        parties = f"subject {rng.choice(('R', 'R: x', 'S: y'))} object {rng.choice(('S', 'T: x', 'R'))}"
        context = rng.choice(("", "", " context T", " context p"))
        create = f"create on {_reference_condition(rng, ids, ('and', 'or', 'or', 'before'))};"
        if rng.random() < 0.5:
            antecedent = f" antecedent {_reference_condition(rng, ids)};" if rng.random() < 0.5 else ""
            body = f"{create}{antecedent} consequent {_reference_condition(rng, ids)} within 5 blocks;"
            norms.append(f"  commitment {norm_id} {parties}{context} {{ {body} }}")
        else:
            forbids = rng.choice(("A(x)", "C(y)"))
            unless = rng.random() < 0.5
            exemption = f" unless {_reference_condition(rng, ids, ('and', 'or'))} before {forbids};" if unless else ""
            body = f"{create} forbids {forbids};{exemption} until {_reference_condition(rng, ids)};"
            norms.append(f"  prohibition {norm_id} {parties}{context} {{ {body} }}")
    rng.shuffle(norms)
    return norms


def test_state_references_draw_the_recursive_reference_s_diagnostics():
    """Every diagnostic, in order, equals the recursive walks' on generated
    compacts, each declared in both orders. The walk order decides which
    norm of a cycle sees another's create variables of no kind, and a later
    declaration of an id walks with that id already seen. A long sweep:

        COMPACTS_FUZZ_EXAMPLES=20000 PYTHONPATH=src python -m pytest -q tests/test_checks.py -k recursive_reference
    """
    for seed in range(int(os.environ.get("COMPACTS_FUZZ_EXAMPLES", 600))):
        norms = reference_norms(seed)
        for declared in (norms, norms[::-1]):
            text = REFERENCE_SPEC.format(norms="\n".join(declared))
            assert check_well_formedness(parse_compact(text)) == scan_diagnostics(parse_compact(text)), text


# --- seeded mutants --------------------------------------------------------

MUTANT_GOLDEN = FIXTURES / "golden_check_mutants.json"
MUTANTS = 1500
BUNDLED = sorted(DEMOS.glob("*.cpt"))
_LEXEME = re.compile(r'#[^\n]*|"(?:\\.|[^"\\\n])*"|counts-as|-?\d+|\w+|\S')
_KINDS = ("text", "int", "bool")
_LITERALS = {"text": ('"s"', '"accept"'), "int": ("0", "3", "-1"), "bool": ("true", "false")}


def _literal_kind(lexeme: str):
    if lexeme.startswith('"'):
        return "text"
    if lexeme in ("true", "false"):
        return "bool"
    return "int" if lexeme.lstrip("-").isdecimal() else None


def mutant(number: int) -> tuple[str, str]:
    """Mutant `number`: its substitution, as `compact line:col old -> new`,
    and its text."""
    path = BUNDLED[number % len(BUNDLED)]
    text = path.read_text(encoding="utf-8")
    spans: dict[str, list[re.Match]] = {"kind": [], "name": [], "literal": []}
    previous = ""
    for match in _LEXEME.finditer(text):
        lexeme = match.group()
        if lexeme.startswith("#"):
            continue
        if lexeme in _KINDS:
            spans["kind"].append(match)
        elif _literal_kind(lexeme) and previous == ":":  # a term, not a deadline
            spans["literal"].append(match)
        elif (lexeme[0].isalpha() or lexeme[0] == "_") and lexeme not in KEYWORDS:
            spans["name"].append(match)
        previous = lexeme
    names = sorted({match.group() for match in spans["name"]})
    rng = random.Random(number)
    match = rng.choice(spans[rng.choice([category for category in spans if spans[category]])])
    old = match.group()
    if old in _KINDS:
        new = rng.choice([kind for kind in _KINDS if kind != old])
    elif _literal_kind(old):
        new = rng.choice([lit for kind in _KINDS if kind != _literal_kind(old) for lit in _LITERALS[kind]])
    else:
        new = rng.choice([name for name in names if name != old])
    line = text.count("\n", 0, match.start()) + 1
    col = match.start() - text.rfind("\n", 0, match.start())
    return f"{path.name} {line}:{col} {old} -> {new}", text[: match.start()] + new + text[match.end():]


def mutant_outcome(text: str) -> list:
    """["parse", line, col, message] or ["checked", diagnostics]."""
    try:
        spec = parse_compact(text)
    except ParseError as exc:
        return ["parse", exc.line, exc.col, exc.message]
    return ["checked", [dataclasses.astuple(d) for d in check_well_formedness(spec)]]


def mutant_table(count: int = MUTANTS) -> dict:
    outcomes = [mutant_outcome(mutant(number)[1]) for number in range(count)]
    return {
        "mutants": count,
        "reached": sum(outcome[0] == "checked" for outcome in outcomes),
        "with_diagnostics": sum(outcome[0] == "checked" and bool(outcome[1]) for outcome in outcomes),
        "digests": [hashlib.sha256(json.dumps(outcome).encode()).hexdigest() for outcome in outcomes],
    }


def test_checker_verdicts_on_seeded_mutants_match_the_golden():
    """The checker's verdicts on 1,500 seeded mutants of the bundled
    compacts, held to fixtures/golden_check_mutants.json: per mutant, the
    SHA-256 of its ParseError, or of its diagnostics.
    A mutant is one bundled compact with one lexeme substituted: a kind
    keyword for another kind, a declared name for another name of the same
    compact, or a pattern's literal for a literal of another kind.

    On a mismatch the test names each changed mutant and its substitution. A
    change meant to alter the checker's output rewrites the fixture with
    `PYTHONPATH=src:tests python tests/test_checks.py` and says which rows
    changed and why."""
    table = mutant_table()
    assert table["reached"] >= 1000 and table["with_diagnostics"] >= 600
    expected = json.loads(MUTANT_GOLDEN.read_text(encoding="utf-8"))
    changed = [
        f"mutant {number}: {mutant(number)[0]}"
        for number, (got, want) in enumerate(zip(table["digests"], expected["digests"]))
        if got != want
    ]
    assert table == expected, "\n".join(changed)


if __name__ == "__main__":
    MUTANT_GOLDEN.write_text(json.dumps(mutant_table(), indent=0) + "\n", encoding="utf-8")
