"""Fuzz the CLI over its five input formats: no input ends in a traceback.

Each case takes a bundled valid input (a .cpt file, a scenario, a chain
snapshot, a network config or a report), mutates it and runs ``cli.main`` in
process on it. JSON inputs lose a key or an array element, or get a value
swapped for one of another JSON type; .cpt files lose, duplicate or swap
tokens, get a hostile one inserted (a digit int() rejects, a 5,000-digit
literal, 300 open parentheses, a 601-term 'and' chain), or have a condition
deepened into a 61- or 3,001-term 'and' chain of its first pattern; either
kind may get bytes that are not UTF-8 inserted. A mutated hospital or
tumor-board compact that ``compacts parse`` accepts is also run on one of
that compact's bundled scenarios and its network config, so a compact that
parses but breaks evaluation is caught too. Every run must return a
documented exit code, with nothing raised out of main.

The tier-1 run is small. A long sweep sets the number of cases per format:

    COMPACTS_FUZZ_EXAMPLES=10000 PYTHONPATH=src python -m pytest -q tests/test_cli_fuzz.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from compacts.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    EXIT_WELL_FORMEDNESS,
    main,
)

from conftest import DEMOS, FIXTURES, cli_argv

DOCUMENTED_EXITS = {EXIT_OK, EXIT_PARSE, EXIT_WELL_FORMEDNESS, EXIT_VERIFY, EXIT_USAGE, EXIT_DATA}

# Bytes that no UTF-8 decoder accepts: a lone continuation byte, bytes never
# used, a truncated sequence and an encoded surrogate.
NOT_UTF8 = (b"\x80", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80")

SCALAR_BY_TYPE = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-(2**70), 2**70),
    float: st.floats(),
    str: st.text(max_size=6) | st.just("\ud800"),  # a lone surrogate: valid JSON, not UTF-8
}
SCALARS = st.one_of(*SCALAR_BY_TYPE.values())
BY_TYPE = {
    **SCALAR_BY_TYPE,
    list: st.lists(SCALARS, max_size=3),
    dict: st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
}


def _examples(tier1: int) -> settings:
    count = int(os.environ.get("COMPACTS_FUZZ_EXAMPLES", tier1))
    return settings(
        max_examples=count,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate_json(data, doc):
    """Drop one node of doc or swap it for a value of another JSON type."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    if path and data.draw(st.booleans()):
        del parent[path[-1]]
        return doc
    other = data.draw(st.sampled_from([t for t in BY_TYPE if type(node) is not t]))
    value = data.draw(BY_TYPE[other])
    if not path:
        return value
    parent[path[-1]] = value
    return doc


# Each ended in a traceback once: int() on '\u00b2' or on 5,000 digits, and
# recursion on deep conditions. They go where they bite: before a number, or
# first in a condition.
HOSTILE_CPT_TOKENS = ("\u00b2", "9" * 5000, "(" * 300, "E(k) and " * 600)
CONDITION_OPENERS = ("on", "antecedent", "consequent", "until", "and", "or")


def _mutate_cpt(data, text: str) -> str:
    tokens = re.findall(r"\w+|\S|\s+", text)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(tokens) - 1))
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap", "hostile", "deepen"]))
        if op == "drop":
            del tokens[at]
        elif op == "duplicate":
            tokens.insert(at, tokens[at])
        elif op == "deepen":
            # an 'and' chain of the pattern a condition starts with: it names
            # only declared events, so it passes the checker. 60 terms mostly
            # stay within MAX_CONDITION_DEPTH and reach run; Hypothesis allows
            # 2,000 more stack frames than a plain run, so 3,000 terms are
            # past both.
            spots = [i for i in range(2, len(tokens)) if tokens[i - 2] in CONDITION_OPENERS]
            if spots:
                at = data.draw(st.sampled_from(spots))
                end = tokens.index(")", at) if ")" in tokens[at:] else at
                terms = data.draw(st.sampled_from([60, 3000]))
                tokens.insert(at, ("".join(tokens[at : end + 1]) + " and ") * terms)
        elif op == "hostile":
            spots = [
                i for i, token in enumerate(tokens)
                if token.isdigit() or (i >= 2 and tokens[i - 2] in CONDITION_OPENERS)
            ]
            at = data.draw(st.sampled_from(spots)) if spots else at
            tokens.insert(at, data.draw(st.sampled_from(HOSTILE_CPT_TOKENS)))
        else:
            tokens[at] = tokens[data.draw(st.integers(0, len(tokens) - 1))]
    return "".join(tokens)


def _maybe_not_utf8(data, raw: bytes) -> bytes:
    if data.draw(st.integers(0, 4)):  # one case in five
        return raw
    at = data.draw(st.integers(0, len(raw)))
    return raw[:at] + data.draw(st.sampled_from(NOT_UTF8)) + raw[at:]


def _run(*argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in DOCUMENTED_EXITS, err.getvalue()
    event(f"{argv[0]} exit {code}")  # the mix shows under --hypothesis-show-statistics
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_report(workdir):
    out = workdir / "valid_report.json"
    scenario = DEMOS / "hospital_violation.jsonl"
    assert main(cli_argv("scenario", scenario, out)) == EXIT_OK
    return json.loads(out.read_text())


CPT_FILES = sorted(DEMOS.glob("*.cpt"))

# compact -> the (scenario, network config) pairs bundled for it
BUNDLED_RUNS = {
    "hospital.cpt": [
        ("hospital_violation.jsonl", "hospital_net.json"),
        ("hospital_compliant.jsonl", "hospital_net.json"),
    ],
    "tumorboard.cpt": [
        ("tumorboard_member.jsonl", "tumorboard_net.json"),
        ("tumorboard_nonmember.jsonl", "tumorboard_net.json"),
    ],
}


def _fuzz_compact(workdir, data, sources) -> None:
    source = data.draw(st.sampled_from(sources))
    # drawn before the mutation, so that every case that parses reaches run
    bundled = data.draw(st.sampled_from(BUNDLED_RUNS.get(source.name, [None])))
    path = workdir / "input.cpt"
    path.write_bytes(_maybe_not_utf8(data, _mutate_cpt(data, source.read_text()).encode()))
    code = _run(*cli_argv("cpt", path, workdir / "report.json"))
    if code == EXIT_OK and bundled is not None:
        scenario, net = bundled
        _run("run", "--spec", str(path), "--scenario", str(DEMOS / scenario),
             "--net", str(DEMOS / net), "--out", str(workdir / "report.json"))


@_examples(200)
@given(data=st.data())
def test_fuzz_compact(workdir, data):
    _fuzz_compact(workdir, data, CPT_FILES)


@_examples(100)
@given(data=st.data())
def test_fuzz_runnable_compact(workdir, data):
    """Only the compacts with a bundled scenario, so that more cases reach run."""
    _fuzz_compact(workdir, data, [DEMOS / name for name in BUNDLED_RUNS])


def _fuzz_json(data, workdir, fmt: str, doc, jsonl: bool = False) -> None:
    for _ in range(data.draw(st.integers(1, 2))):
        doc = _mutate_json(data, doc)
    if jsonl and isinstance(doc, list):
        text = "\n".join(json.dumps(line) for line in doc)
    else:
        text = json.dumps(doc)
    path = workdir / f"input.{fmt}"
    path.write_bytes(_maybe_not_utf8(data, text.encode()))
    _run(*cli_argv(fmt, path, workdir / "report.json"))
    if fmt == "snapshot":
        _run("eval", "--chain", str(path), "--spec", str(DEMOS / "minimal.cpt"),
             "--out", str(workdir / "report.json"))


@_examples(100)
@given(data=st.data())
def test_fuzz_scenario(workdir, data):
    source = data.draw(st.sampled_from(["hospital_violation.jsonl", "hospital_compliant.jsonl"]))
    lines = [json.loads(line) for line in (DEMOS / source).read_text().splitlines() if line]
    _fuzz_json(data, workdir, "scenario", lines, jsonl=True)


@_examples(150)
@given(data=st.data())
def test_fuzz_snapshot(workdir, data):
    _fuzz_json(data, workdir, "snapshot", json.loads((FIXTURES / "golden_chain.json").read_text()))


@_examples(100)
@given(data=st.data())
def test_fuzz_network_config(workdir, data):
    # A swap never puts a string in place of a string, so the target stays
    # the demo target or becomes invalid: a target just above the floor
    # (fileformats.MIN_TARGET, about 65k nonces a block) is valid input that
    # mines for minutes.
    config = json.loads((DEMOS / "hospital_net.json").read_text())
    _fuzz_json(data, workdir, "net", config)


@_examples(200)
@given(data=st.data())
def test_fuzz_report(workdir, valid_report, data):
    _fuzz_json(data, workdir, "report", json.loads(json.dumps(valid_report)))
