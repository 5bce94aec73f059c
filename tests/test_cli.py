"""CLI surface: subcommands, exit codes, determinism."""

import json

import pytest

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


def run_cli(*argv):
    return main(list(argv))


def test_parse_bundled_compacts_exit_zero(capsys):
    for name in ("hospital.cpt", "tumorboard.cpt", "minimal.cpt"):
        assert run_cli("parse", str(DEMOS / name)) == EXIT_OK
    assert "ok" in capsys.readouterr().err


def test_parse_syntax_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cpt"
    bad.write_text("compact Broken context c { roles R\n")
    assert run_cli("parse", str(bad)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "bad.cpt:2:1: error:" in err  # one diagnostic with line:col


def test_parse_well_formedness_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "wf.cpt"
    bad.write_text(
        "compact T context c { roles R; schema A(x: text out); "
        "channel m members R carries A; }"
    )
    assert run_cli("parse", str(bad)) == EXIT_WELL_FORMEDNESS
    assert "error" in capsys.readouterr().err


def test_parse_missing_file_exit_usage(capsys):
    assert run_cli("parse", "/nonexistent/nothing.cpt") == EXIT_USAGE


def test_unknown_subcommand_exit_usage(capsys):
    assert run_cli("frobnicate") == EXIT_USAGE


def test_run_writes_report_and_chain(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    chain_path = tmp_path / "chain.json"
    code = run_cli(
        "run",
        "--spec", str(DEMOS / "hospital.cpt"),
        "--scenario", str(DEMOS / "hospital_violation.jsonl"),
        "--net", str(DEMOS / "hospital_net.json"),
        "--out", str(report_path),
        "--chain-out", str(chain_path),
    )
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    states = {i["norm_id"]: i["state"] for i in report["instances"]}
    assert states == {"P1": "violated", "C1": "satisfied"}
    assert report["network"]["converged"] is True

    # the emitted chain passes verify-chain
    assert run_cli("verify-chain", str(chain_path)) == EXIT_OK


def test_run_is_byte_deterministic(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        assert run_cli(
            "run",
            "--spec", str(DEMOS / "hospital.cpt"),
            "--scenario", str(DEMOS / "hospital_compliant.jsonl"),
            "--net", str(DEMOS / "hospital_net.json"),
            "--out", str(out),
        ) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_run_seed_flag_changes_the_gossip_schedule(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for seed, out in ((1, out_a), (2, out_b)):
        assert run_cli(
            "run",
            "--spec", str(DEMOS / "hospital.cpt"),
            "--scenario", str(DEMOS / "hospital_compliant.jsonl"),
            "--net", str(DEMOS / "hospital_net.json"),
            "--seed", str(seed),
            "--out", str(out),
        ) == EXIT_OK
    # same verdicts either way; the chain tip may differ
    a, b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
    assert [i["state"] for i in a["instances"]] == [i["state"] for i in b["instances"]]


def test_empty_scenario_yields_zero_instances(tmp_path):
    scenario = tmp_path / "empty.jsonl"
    scenario.write_text("")
    out = tmp_path / "report.json"
    assert run_cli(
        "run",
        "--spec", str(DEMOS / "hospital.cpt"),
        "--scenario", str(scenario),
        "--net", str(DEMOS / "hospital_net.json"),
        "--out", str(out),
    ) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["instances"] == []
    assert report["trust"] == []


def test_eval_subcommand_on_golden_chain(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "eval",
        "--chain", str(FIXTURES / "golden_chain.json"),
        "--spec", str(DEMOS / "minimal.cpt"),
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["instances"] == []


def test_verify_chain_golden_fixture_ok():
    assert run_cli("verify-chain", str(FIXTURES / "golden_chain.json")) == EXIT_OK


def test_verify_chain_tampered_fixture_exit_three(tmp_path, capsys):
    data = json.loads((FIXTURES / "golden_chain.json").read_text())
    data["blocks"][4]["events"][0]["attributes"]["value"] = 13_000
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    assert run_cli("verify-chain", str(tampered)) == EXIT_VERIFY
    assert "4" in capsys.readouterr().err


def test_verify_chain_malformed_json_exit_65(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    assert run_cli("verify-chain", str(broken)) == EXIT_DATA


ADMIT = {"round": 0, "event_type": "Admit", "attributes": {"patient": "charlie", "nurse": "bob"},
         "emitter": "hospital"}


@pytest.mark.parametrize(
    "line",
    [
        dict(ADMIT, logical_ts=-1),
        dict(ADMIT, logical_ts=2**64),
        dict(ADMIT, attributes={"patient": 2**63, "nurse": "bob"}),
        dict(ADMIT, attributes={"patient": -(2**63) - 1, "nurse": "bob"}),
        dict(ADMIT, attributes={"patient": 1.5, "nurse": "bob"}),
    ],
    ids=["negative-ts", "ts-over-u64", "attribute-over-i64", "attribute-under-i64", "float-attribute"],
)
def test_run_out_of_range_integer_exit_65(tmp_path, capsys, line):
    scenario = tmp_path / "scenario.jsonl"
    scenario.write_text(json.dumps(line) + "\n")
    assert run_cli(
        "run",
        "--spec", str(DEMOS / "hospital.cpt"),
        "--scenario", str(scenario),
        "--net", str(DEMOS / "hospital_net.json"),
        "--out", str(tmp_path / "report.json"),
    ) == EXIT_DATA
    assert "scenario.jsonl:1:" in capsys.readouterr().err


def _golden(path, value) -> bytes:
    """The golden chain snapshot with one field of block 4 set to value."""
    data = json.loads((FIXTURES / "golden_chain.json").read_text())
    record = data["blocks"][4]
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value
    return json.dumps(data).encode()


@pytest.mark.parametrize(
    "path, value",
    [
        (("events", 0, "logical_ts"), -1),
        (("events", 0, "attributes", "value"), 2**63),
        (("header", "nonce"), 2**64),
    ],
    ids=["negative-ts", "attribute-over-i64", "nonce-over-u64"],
)
def test_verify_chain_out_of_range_integer_exit_65(tmp_path, path, value):
    snapshot = tmp_path / "chain.json"
    snapshot.write_bytes(_golden(path, value))
    assert run_cli("verify-chain", str(snapshot)) == EXIT_DATA


def _scenario(**changes) -> bytes:
    return json.dumps(dict(ADMIT, **changes)).encode() + b"\n"


def _net(**changes) -> bytes:
    data = json.loads((DEMOS / "hospital_net.json").read_text())
    return json.dumps(dict(data, **changes)).encode()


NOT_UTF8 = b"\xff\xfe"

# input format, file contents; a .cpt file is a parse error (1), the rest data errors (65)
MALFORMED_INPUTS = {
    "scenario-attributes-array": ("scenario", _scenario(attributes=["x"])),
    "scenario-event-type-int": ("scenario", _scenario(event_type=5)),
    "scenario-unrostered-emitter": ("scenario", _scenario(emitter="mallory")),
    "scenario-not-utf8": ("scenario", _scenario()[:-3] + NOT_UTF8 + b'"}\n'),
    "scenario-round-negative": ("scenario", _scenario(round=-1, logical_ts=0)),
    "scenario-round-bool": ("scenario", _scenario(round=True)),
    "scenario-round-past-max-rounds": ("scenario", _scenario(round=1_000_000)),
    "snapshot-attributes-array": ("snapshot", _golden(("events", 0, "attributes"), ["x"])),
    "snapshot-emitter-int": ("snapshot", _golden(("events", 0, "emitter"), 5)),
    "snapshot-miner-int": ("snapshot", _golden(("header", "miner"), 5)),
    "snapshot-blocks-int": ("snapshot", b'{"blocks": 5}'),
    "snapshot-not-utf8": ("snapshot", b'{"blocks": "' + NOT_UTF8 + b'"}'),
    "net-role-list-int": ("net", _net(roles={"bob": 5})),
    "net-roles-array": ("net", _net(roles=[1])),
    "net-no-peers": ("net", _net(peers=[])),
    "net-zero-target": ("net", _net(target="0")),
    "net-target-below-floor": ("net", _net(target="1")),
    "net-max-rounds-text": ("net", _net(max_rounds="5")),
    "net-not-utf8": ("net", _net()[:-1] + b', "x": "' + NOT_UTF8 + b'"}'),
    "report-trust-row-lacks-fields": ("report", b'{"instances": [], "trust": [{"principal": "bob"}]}'),
    "report-not-utf8": ("report", b'{"instances": [], "x": "' + NOT_UTF8 + b'"}'),
    "cpt-not-utf8": ("cpt", NOT_UTF8 + (DEMOS / "hospital.cpt").read_bytes()),
}


@pytest.mark.parametrize("fmt, payload", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_exits_with_its_documented_code(tmp_path, capsys, fmt, payload):
    path = tmp_path / f"input.{fmt}"
    path.write_bytes(payload)
    expected = EXIT_PARSE if fmt == "cpt" else EXIT_DATA
    assert run_cli(*cli_argv(fmt, path, tmp_path / "report.json")) == expected
    assert "error" in capsys.readouterr().err


def test_trust_subcommand_prints_scores(tmp_path, capsys):
    out = tmp_path / "report.json"
    run_cli(
        "run",
        "--spec", str(DEMOS / "hospital.cpt"),
        "--scenario", str(DEMOS / "hospital_violation.jsonl"),
        "--net", str(DEMOS / "hospital_net.json"),
        "--out", str(out),
    )
    capsys.readouterr()
    assert run_cli("trust", "--report", str(out)) == EXIT_OK
    printed = capsys.readouterr().out
    assert "bob" in printed and "0.333333" in printed
