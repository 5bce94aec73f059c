"""Round-trips and format errors for the external file formats."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compacts import ledger
from compacts.evaluator import evaluate
from compacts.fileformats import (
    MIN_TARGET,
    DataFormatError,
    _indented,
    build_report,
    chain_to_json,
    event_from_json,
    fact_to_json,
    read_chain,
    read_network_config,
    read_report,
    read_scenario,
    trust_to_json,
    write_chain,
    write_report,
)
from compacts.governance import Organization
from compacts.incremental import fold_chain
from compacts.lang import parse_compact
from compacts.ledger import GENESIS_BLOCK, Chain, Event, verify_chain
from compacts.matching import bindings_sort_key
from compacts.network import run_network
from compacts.trust import TrustScore, trust_report

from conftest import DEMOS, FIXTURES, bench_generators, build_chain, hospital_events
from scan_encodable import scan_check_encodable
from scenario_gen import random_case


def test_chain_snapshot_round_trip(tmp_path):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    path = tmp_path / "chain.json"
    write_chain(chain, str(path))
    assert read_chain(str(path)) == chain


def test_chain_digests_are_lowercase_hex():
    violation, _ = hospital_events()
    data = chain_to_json(build_chain(violation))
    for block in data["blocks"]:
        for field in ("prev_hash", "events_digest"):
            value = block["header"][field]
            assert value == value.lower()
            int(value, 16)
            assert len(value) == 64


def test_golden_chain_fixture_verifies():
    chain = read_chain(str(FIXTURES / "golden_chain.json"))
    assert len(chain.blocks) == 11
    assert verify_chain(chain) is None


def test_malformed_chain_is_a_data_format_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataFormatError):
        read_chain(str(path))
    path.write_text('{"blocks": [{"header": {"index": 0}}]}')
    with pytest.raises(DataFormatError):
        read_chain(str(path))


def test_scenario_reader_parses_bundled_files():
    # each line's round and its unsigned event, with ids by position
    scenario = read_scenario(str(DEMOS / "hospital_violation.jsonl"))
    assert [round_no for round_no, _ in scenario] == [0, 2, 4, 6]
    assert [event.event_id for _, event in scenario] == [f"evt-{i:05d}" for i in range(4)]
    assert all(event.signature == b"" for _, event in scenario)
    assert scenario[0][1].event_type == "Admit"
    assert dict(scenario[1][1].attributes) == {"patient": "charlie", "sharer": "bob"}


def test_scenario_reader_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"round": 0}\n')
    with pytest.raises(DataFormatError):
        read_scenario(str(path))


def test_network_config_reader():
    config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    assert config.peers == ("peer-1", "peer-2", "peer-3")
    assert config.target == 1 << 250
    assert config.roster["bob"] == "nurse-bob-key"
    assert roles["charlie"] == ["Patient"]


def test_network_config_target_floor_is_inclusive(tmp_path):
    data = json.loads((DEMOS / "hospital_net.json").read_text())
    path = tmp_path / "net.json"
    path.write_text(json.dumps(dict(data, target=f"{MIN_TARGET:x}")))
    assert read_network_config(str(path))[0].target == MIN_TARGET
    path.write_text(json.dumps(dict(data, target=f"{MIN_TARGET - 1:x}")))
    with pytest.raises(DataFormatError):
        read_network_config(str(path))


def test_report_round_trip(tmp_path, hospital_spec, hospital_org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    state = evaluate(chain, hospital_spec, hospital_org)
    report = build_report(state, chain, trust_report(state))
    path = tmp_path / "report.json"
    write_report(report, str(path))
    assert read_report(str(path)) == report


def test_report_validates_against_shipped_schema(hospital_spec, hospital_org):
    jsonschema = pytest.importorskip("jsonschema")
    violation, _ = hospital_events()
    chain = build_chain(violation)
    state = evaluate(chain, hospital_spec, hospital_org)
    report = build_report(state, chain, trust_report(state))
    with open(DEMOS.parent / "docs" / "report-schema.json", "r", encoding="utf-8") as handle:
        schema = json.load(handle)
    jsonschema.validate(report, schema)
    # at these counts the written score rounds to 1.0 and to 0.0
    for satisfied, violated in ((1_999_998, 0), (0, 1_999_998)):
        row = trust_to_json(TrustScore("alice", "S", satisfied, violated))
        assert row["score"] in (0.0, 1.0)
        jsonschema.validate(dict(report, trust=[row]), schema)


def _report_cases(hospital_spec, hospital_org):
    """(chain, spec, org) per case: the narrative, three random cases and
    peerreview-80. In all but the narrative, derivation order is not report
    order."""
    violation, _ = hospital_events()
    yield build_chain(violation), hospital_spec, hospital_org
    for seed in (3, 12, 20):
        spec, org, chain, _ = random_case(seed)
        yield chain, spec, org
    spec = parse_compact((DEMOS / "peerreview.cpt").read_text())
    blocks, config = bench_generators().peerreview_inputs(1, 80)
    yield Chain(blocks=(GENESIS_BLOCK, *blocks)), spec, Organization.make(spec.context, config["roles"])


def test_report_arrays_are_in_stable_order(hospital_spec, hospital_org):
    for chain, spec, org in _report_cases(hospital_spec, hospital_org):
        state = fold_chain(chain, spec, org)
        report = build_report(state, chain, trust_report(state))
        ids = [(i["norm_id"], tuple(sorted(i["bindings"].items()))) for i in report["instances"]]
        assert ids == sorted(ids), spec.name
        # a state holds its facts in derivation order, which a back-dated
        # fact leaves out of report order: the report sorts them
        by_report = sorted(state.facts, key=lambda f: (f.witness, f.name, bindings_sort_key(f.bindings)))
        assert report["facts"] == [fact_to_json(f) for f in by_report], spec.name
        trust_keys = [(t["principal"], t["norm_id"]) for t in report["trust"]]
        assert trust_keys == sorted(trust_keys), spec.name


# Text with what JSON escapes: lone surrogates, control and non-BMP characters.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", "\ud800", "a\udfff", "\udbff\udc00", "\x00", "\x1f\x7f", "\u2028", "\U0001f600", '"\\/']
)
INT_EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, -(2**64)]
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(INT_EDGES)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300, 5e-324, float("nan"), float("inf"), float("-inf")])
    | TEXT
)


def _containers(children):
    return st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3)


# A written document is a dict or a list; below it, anything JSON holds.
JSON_TREES = _containers(st.recursive(JSON_SCALARS, _containers, max_leaves=12))


def _indented_text(value) -> str:
    out: list[str] = []
    _indented(value, out)
    return "".join(out)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tree=JSON_TREES)
@example(tree={"": [], "a": {}, "b": [[], {}, [[{}]]], "c": {"d": {"e": []}}})
@example(tree=[None, True, False, 0, -0.0, 1e300, float("nan"), 2**64, -(2**63), "\ud800\U0001f600\x00"])
@example(tree={"\udfff": {"\x1f": [1.5, -(2**63) - 1]}})
def test_the_indented_writer_equals_json_dumps(tree):
    assert _indented_text(tree) == json.dumps(tree, indent=2)


def test_the_writers_write_json_dumps_text_and_a_newline(tmp_path):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    path = tmp_path / "chain.json"
    write_chain(chain, str(path))
    assert path.read_bytes() == (json.dumps(chain_to_json(chain), indent=2) + "\n").encode("ascii")
    report = {"compact": "\u00e9\U0001f600", "instances": [], "facts": [{}], "trust": [0.25]}
    write_report(report, str(path))
    assert path.read_bytes() == (json.dumps(report, indent=2) + "\n").encode("ascii")


def test_the_writer_refuses_what_json_cannot_write():
    for value in ({1: "a"}, {"a": b"x"}, [object()], "a document must be a dict or a list"):
        with pytest.raises(TypeError):
            _indented_text(value)


# Every edge of test_cli.py's malformed records, and their neighbours.
BAD_TEXT = st.sampled_from(["\ud800", "a\udfff", 5, -1, None, True, 1.5, ["x"], {}])
BAD_VALUE = st.sampled_from([2**63, -(2**63) - 1, 2**64, 1.5, -0.0, float("inf"), None, ["x"], {}, "\udc80"])
LOGICAL_TS = st.integers(0, 3) | st.sampled_from([2**64 - 1, 2**63, 0])
BAD_TS = st.sampled_from([-1, -(2**63), 2**64, 2**65, True, False, 1.5, -0.0, None, "1", [1]])
VALUE = TEXT | st.booleans() | st.integers(-(2**63), 2**63 - 1) | st.sampled_from([2**63 - 1, -(2**63)])
FIELDS = ("event_id", "event_type", "emitter", "logical_ts", "attribute value", "attribute name")


@st.composite
def _event_records(draw):
    """A record that encodes, with none, one or two of its fields set to an
    edge the encoding may refuse."""
    record = {
        "event_id": draw(TEXT),
        "event_type": draw(TEXT),
        "attributes": draw(st.dictionaries(TEXT, VALUE, max_size=3)),
        "emitter": draw(TEXT),
        "logical_ts": draw(LOGICAL_TS),
        "signature": draw(st.sampled_from(["", "00ff", "ab" * 32])),
    }
    for field in draw(st.lists(st.sampled_from(FIELDS), max_size=2)):
        if field == "logical_ts":
            record[field] = draw(BAD_TS)
        elif field == "attribute value":
            record["attributes"][draw(TEXT)] = draw(BAD_VALUE)
        elif field == "attribute name":
            record["attributes"][draw(st.sampled_from(["\ud800", "x\udbff"]))] = draw(VALUE)
        else:
            record[field] = draw(BAD_TEXT)
    return record


@settings(derandomize=True, max_examples=300, deadline=None)
@given(record=_event_records())
@example(record={"event_id": "e", "event_type": "Admit", "attributes": {}, "emitter": "h",
                 "logical_ts": True, "signature": ""})
@example(record={"event_id": "e", "event_type": "Admit", "attributes": {"n": 2**63 - 1, "m": -(2**63)},
                 "emitter": "h", "logical_ts": 2**64 - 1, "signature": ""})
@example(record={"event_id": "e", "event_type": "Admit", "attributes": {"\ud800": 1}, "emitter": "h",
                 "logical_ts": 0, "signature": ""})
def test_encodable_verdicts_equal_the_reference(record):
    """event_from_json refuses exactly the records the parent's field-by-field
    check refuses, and an event it accepts keeps its canonical bytes."""
    made = Event.make(**dict(record, signature=bytes.fromhex(record["signature"])))
    try:
        scan_check_encodable(made, "record")
        expected = True
    except DataFormatError:
        expected = False
    try:
        event = event_from_json(record)
    except DataFormatError as exc:
        assert not expected, str(exc)
        assert str(exc).startswith("bad event record: event ")
        return
    assert expected
    assert event == made
    assert vars(event)["_encoded"] is not None


def test_a_read_chain_is_encoded_once(monkeypatch):
    """Reading a snapshot encodes each event, and verify_chain's digests
    reuse those bytes rather than encoding again."""
    encodes = []
    original = ledger._attributes_bytes
    monkeypatch.setattr(ledger, "_attributes_bytes", lambda a: encodes.append(a) or original(a))
    chain = read_chain(str(FIXTURES / "golden_chain.json"))
    events = sum(len(block.events) for block in chain.blocks)
    assert events > 0 and len(encodes) == events
    assert verify_chain(chain) is None
    assert len(encodes) == events


def test_a_read_scenario_is_encoded_once(monkeypatch):
    """Reading a scenario encodes each event, and run_network's signing and
    every peer's digests reuse those bytes."""
    encodes = []
    original = ledger._attributes_bytes
    monkeypatch.setattr(ledger, "_attributes_bytes", lambda a: encodes.append(a) or original(a))
    scenario = read_scenario(str(DEMOS / "hospital_violation.jsonl"))
    assert len(encodes) == len(scenario) == 4
    config, _ = read_network_config(str(DEMOS / "hospital_net.json"))
    result = run_network(scenario, config)
    assert sum(len(block.events) for block in result.active_chain.blocks) == 4
    assert len(encodes) == 4
