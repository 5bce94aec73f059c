"""Round-trips and format errors for the external file formats."""

import json

import pytest

from compacts.evaluator import evaluate
from compacts.fileformats import (
    MIN_TARGET,
    DataFormatError,
    build_report,
    chain_to_json,
    read_chain,
    read_network_config,
    read_report,
    read_scenario,
    trust_to_json,
    write_chain,
    write_report,
)
from compacts.ledger import verify_chain
from compacts.trust import TrustScore, trust_report

from conftest import DEMOS, FIXTURES, build_chain, hospital_events


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
    subs = read_scenario(str(DEMOS / "hospital_violation.jsonl"))
    assert len(subs) == 4
    assert subs[0].event_type == "Admit"
    assert subs[0].round == 0
    assert dict(subs[1].attributes) == {"patient": "charlie", "sharer": "bob"}


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


def test_report_arrays_are_in_stable_order(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    state = evaluate(chain, hospital_spec, hospital_org)
    report = build_report(state, chain, trust_report(state))
    ids = [(i["norm_id"], tuple(sorted(i["bindings"].items()))) for i in report["instances"]]
    assert ids == sorted(ids)
    trust_keys = [(t["principal"], t["norm_id"]) for t in report["trust"]]
    assert trust_keys == sorted(trust_keys)
