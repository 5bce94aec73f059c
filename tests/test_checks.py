"""Well-formedness diagnostics and the static observability report."""

import dataclasses
import glob

import pytest

from compacts.lang import check_observability, check_well_formedness, parse_compact
from compacts.lang.checks import ObservabilityGap
from compacts.validator import Channel

from conftest import DEMOS

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


@pytest.mark.parametrize("path", sorted(glob.glob(str(DEMOS / "*.cpt"))))
def test_bundled_corpus_is_well_formed(path):
    with open(path, "r", encoding="utf-8") as handle:
        spec = parse_compact(handle.read())
    assert check_well_formedness(spec) == []


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


def test_counts_as_fact_may_not_take_a_builtin_name():
    assert "fact-shadows-event" in codes(diagnostics_for("  counts-as Sanction(x) from A(x) by R;"))


# --- observability ---------------------------------------------------------


def test_hospital_report_is_empty(hospital_spec):
    assert check_observability(hospital_spec) == []


def test_patient_off_clinical_channel_flags_share(hospital_spec):
    variant = tuple(
        Channel(
            c.name,
            tuple(m for m in c.members if not (c.name == "clinical" and m == "Patient")),
            c.carries,
        )
        for c in hospital_spec.channels
    )
    gaps = check_observability(dataclasses.replace(hospital_spec, channels=variant))
    assert ObservabilityGap("P1", "Patient", "Share") in gaps
    # nothing else about the patient's oversight channel changed
    assert ObservabilityGap("C1", "Patient", "Complaint") not in gaps


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
    assert check_observability(parse_compact(text)) == []


def test_derived_facts_trace_to_source_event_types(tumor_spec):
    # strip the board from the pathology channel: it can no longer observe
    # Assert, the source of the Benign fact its own norm depends on
    variant = tuple(
        Channel(c.name, tuple(m for m in c.members if m != "Oncologist"), c.carries)
        for c in tumor_spec.channels
    )
    gaps = check_observability(dataclasses.replace(tumor_spec, channels=variant))
    assert ObservabilityGap("N1", "Oncologist", "Assert") in gaps


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
    gaps = check_observability(dataclasses.replace(hospital_spec, channels=variant))
    assert ObservabilityGap("C1", "Patient", "Share") in gaps


def test_builtin_types_ride_the_governance_channel_to_every_role():
    text = WRAP.format(body="""
  commitment K subject R: x object S: x {
    create on A(x);
    consequent Sanction(against: x) within 5 blocks;
  }""")
    assert check_observability(parse_compact(text)) == []
