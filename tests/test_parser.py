"""Parser, pretty printer, round-trips, error locality."""

import glob
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from compacts.lang import (
    And,
    Before,
    EventPattern,
    FactPattern,
    Literal,
    NormStateFactPattern,
    Or,
    ParseError,
    parse_compact,
    pretty_print,
)
from compacts.lang.parser import KEYWORDS, tokenize

from conftest import DEMOS, REPO

CORPUS = sorted(glob.glob(str(DEMOS / "*.cpt")))


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 10


@pytest.mark.parametrize("path", CORPUS)
def test_round_trip_identity(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    spec = parse_compact(text)
    printed = pretty_print(spec)
    assert parse_compact(printed) == spec


@pytest.mark.parametrize("path", CORPUS)
def test_pretty_print_is_canonical(path):
    with open(path, "r", encoding="utf-8") as handle:
        spec = parse_compact(handle.read())
    once = pretty_print(spec)
    again = pretty_print(parse_compact(once))
    assert once == again


def test_hospital_example_structure(hospital_spec):
    assert hospital_spec.name == "HospitalCare"
    assert hospital_spec.context == "hospital"
    assert [n.id for n in hospital_spec.norms] == ["P1", "C1"]
    p1, c1 = hospital_spec.norms
    assert p1.kind == "prohibition"
    assert p1.forbids.event_type == "Share"
    assert p1.exemption.event_type == "Consent"
    assert p1.until.event_type == "Discharge"
    assert c1.kind == "commitment"
    assert isinstance(c1.create, NormStateFactPattern)
    assert c1.create.state == "violated"
    assert c1.create.norm_id == "P1"
    assert c1.deadline_blocks == 100


def test_empty_input_fails_at_1_1():
    with pytest.raises(ParseError) as err:
        parse_compact("")
    assert (err.value.line, err.value.col) == (1, 1)


def test_empty_roles_prints_bare_roles_line():
    spec = parse_compact("compact T context c { roles; schema A(x: text key); "
                         "channel m members c carries A; }")
    assert "\n  roles;\n" in pretty_print(spec)


def test_condition_precedence_or_and_before():
    text = """compact T context c {
      roles R;
      schema A(x: text key);
      schema B(x: text key);
      schema C(x: text key);
      channel m members R carries A, B, C;
      commitment K subject R: x object R: x {
        create on A(x);
        consequent A(x) before B(x) and C(x) or B(x) within 5 blocks;
      }
    }"""
    spec = parse_compact(text)
    cond = spec.norms[0].consequent
    # or binds loosest, then and, then before
    assert isinstance(cond, Or)
    assert isinstance(cond.left, And)
    assert isinstance(cond.left.left, Before)
    assert isinstance(cond.right, EventPattern)


def test_parenthesized_conditions_round_trip(hospital_spec):
    text = """compact T context c {
      roles R;
      schema A(x: text key);
      schema B(x: text key);
      channel m members R carries A, B;
      commitment K subject R: x object R: x {
        create on A(x);
        consequent (A(x) or B(x)) and B(x) within 5 blocks;
      }
    }"""
    spec = parse_compact(text)
    cond = spec.norms[0].consequent
    assert isinstance(cond, And)
    assert isinstance(cond.left, Or)
    assert parse_compact(pretty_print(spec)) == spec

    # 'and' and 'or' group to the left: a right operand of the same operator
    # prints in parentheses
    p1, c1 = hospital_spec.norms
    c = p1.create
    for operator in (And, Or):
        nested = replace(p1, create=operator(c, operator(c, c)))
        spec = replace(hospital_spec, norms=(nested, c1))
        assert parse_compact(pretty_print(spec)) == spec


def test_literals_parse_with_kinds():
    text = """compact T context c {
      roles R;
      schema A(x: text key, n: int out, b: bool out);
      channel m members R carries A;
      commitment K subject R: x object R: x {
        create on A(x);
        consequent A(x, n: -3, b: true) and A(x, n: 7, b: false) within 5 blocks;
      }
    }"""
    spec = parse_compact(text)
    cond = spec.norms[0].consequent
    left, right = cond.left, cond.right
    assert left.constraints[1].term == Literal(-3)
    assert left.constraints[2].term == Literal(True)
    assert right.constraints[1].term == Literal(7)
    assert right.constraints[2].term == Literal(False)


@pytest.mark.parametrize(
    "literal, value",
    [
        ("9223372036854775807", 2**63 - 1),
        ("-9223372036854775808", -(2**63)),
        ("0" * 5000 + "7", 7),  # past int()'s digit limit, but 7
        ("\u0663", 3),  # ARABIC-INDIC DIGIT THREE is decimal
        ("9223372036854775808", None),
        ("-9223372036854775809", None),
        ("9" * 5000, None),
    ],
    ids=["i64-max", "i64-min", "zero-padded", "arabic-indic", "over-max", "under-min", "5000-digits"],
)
def test_integer_literals_are_held_to_i64(literal, value):
    text = f"""compact T context c {{
      roles R;
      schema A(x: text key, n: int out);
      channel m members R carries A;
      commitment K subject R: x object R: x {{
        create on A(x);
        consequent A(x, n: {literal}) within 5 blocks;
      }}
    }}"""
    if value is None:
        with pytest.raises(ParseError) as err:
            parse_compact(text)
        assert (err.value.line, err.value.col, err.value.token) == (7, 28, literal)
        assert "64-bit" in err.value.message
    else:
        assert parse_compact(text).norms[0].consequent.constraints[1].term == Literal(value)


def test_string_literal_escapes_round_trip():
    text = ('compact T context c { roles R; schema A(x: text key, s: text out); '
            'channel m members R carries A; '
            'commitment K subject R: x object R: x { create on A(x); '
            'consequent A(x, s: "a\\"b\\\\c\\n") within 2 blocks; } }')
    spec = parse_compact(text)
    assert parse_compact(pretty_print(spec)) == spec
    term = spec.norms[0].consequent.constraints[1].term
    assert term == Literal('a"b\\c\n')


def test_counts_as_fact_names_resolve_in_conditions(tumor_spec):
    antecedent = tumor_spec.norms[0].antecedent
    assert isinstance(antecedent, FactPattern)
    assert antecedent.fact == "Benign"


def test_parse_error_reports_offending_token():
    text = "compact T context c { roles R; schema A(x: text key) channel }"
    with pytest.raises(ParseError) as err:
        parse_compact(text)
    assert err.value.token == "channel"
    assert "';'" in err.value.message


def test_the_first_failure_in_the_text_is_reported():
    """A syntax error before a character the lexer refuses is the one reported."""
    syntax_error = "compact T context c { roles R R; }"
    for text in (syntax_error, syntax_error + "\n?"):
        with pytest.raises(ParseError) as err:
            parse_compact(text)
        assert str(err.value) == "1:31: expected ';', found 'R'"
    with pytest.raises(ParseError) as err:
        parse_compact("compact T context c { roles R; }\n?")
    assert str(err.value) == "2:1: unexpected character '?'"


@pytest.mark.parametrize("text, error", [
    ('a "abc\n', "1:3: unterminated string"),  # at the opening quote
    ('x "ab\\qc"', "1:6: bad escape"),  # at the backslash
    ('y "abc', "1:3: unterminated string"),  # end of input
])
def test_string_errors_point_at_their_cause(text, error):
    with pytest.raises(ParseError) as err:
        list(tokenize(text))
    assert str(err.value) == error


@pytest.mark.parametrize("path", CORPUS)
def test_error_locality_for_injected_garbage(path):
    """An illegal token at any position yields an error at or before it."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    tokens = [t for t in tokenize(text) if t.kind != "EOF"]
    rng = random.Random(Path(path).name)  # hash() is salted per process
    for token in rng.sample(tokens, min(12, len(tokens))):
        lines = text.split("\n")
        line = lines[token.line - 1]
        lines[token.line - 1] = line[: token.col - 1] + "?" + line[token.col - 1 :]
        mutated = "\n".join(lines)
        with pytest.raises(ParseError) as err:
            parse_compact(mutated)
        assert (err.value.line, err.value.col) <= (token.line, token.col), (
            f"error at {err.value.line}:{err.value.col} past injection "
            f"{token.line}:{token.col} in {path}"
        )


# tabs, CRLF line ends, escapes, a non-ASCII name and a file that ends in a comment
TRICKY_SOURCE = (
    'compact T context c {\t# x\r\n\troles R, Rôle;\r\n'
    '  schema A(x: text key, n: int out);  channel m members R carries A;\n'
    '  commitment K subject R: x object R: x {\n'
    '    create on A(x, n: -12) and (A(x, n: 007) before A(x, tag: "a\\"b\\tc"));\n'
    '    consequent A(x) within 3 blocks;\n  }\n} # end'
)


@pytest.mark.parametrize("path", CORPUS + ["tricky"])
def test_every_token_points_at_its_own_text(path):
    text = TRICKY_SOURCE if path == "tricky" else Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    tokens = list(tokenize(text))
    for token in tokens[:-1]:
        rest = lines[token.line - 1][token.col - 1 :]
        if token.kind == "STRING":
            assert rest.startswith('"'), token
        else:
            assert rest.startswith(token.value), token
    # end of input, or the '#' of a comment the input ends in
    eof = tokens[-1]
    assert eof.kind == "EOF"
    assert lines[eof.line - 1][eof.col - 1 :] in ("", "# end") and eof.line == len(lines)


def test_grammar_keywords_are_the_parser_keywords():
    grammar = (REPO / "docs" / "grammar.ebnf").read_text()
    assert set(re.findall(r'"([a-z][a-z-]*)"', grammar)) == KEYWORDS


def test_comments_and_whitespace_are_ignored():
    spec_a = parse_compact(
        "compact T context c {  # inline comment\n"
        "  roles R;\n# full-line comment\n  schema A(x: text key);\n"
        "  channel m members R carries A;\n}"
    )
    spec_b = parse_compact(
        "compact T context c { roles R; schema A(x: text key); channel m members R carries A; }"
    )
    assert spec_a == spec_b
