"""CLI surface: subcommands, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys

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
from compacts.lang import checks
from compacts.lang.parser import MAX_CONDITION_DEPTH

from conftest import DEMOS, FIXTURES, REPO, cli_argv


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


def test_a_non_text_role_variable_stops_parse_and_run(tmp_path, capsys):
    # at exit 0, C was satisfied but its subject x=7 named no principal, so the
    # trust table came out empty
    spec = tmp_path / "role.cpt"
    spec.write_text(
        "compact P context org { roles R, S; schema A(x: int key, y: text out); "
        "schema B(x: int key); channel m members R, S carries A, B; "
        "commitment C subject R: x object S: y { create on A(x, y); consequent B(x) within 5 blocks; } }"
    )
    scenario = tmp_path / "role.jsonl"
    scenario.write_text(
        '{"round": 0, "event_type": "A", "attributes": {"x": 7, "y": "s1"}, "emitter": "p1"}\n'
        '{"round": 2, "event_type": "B", "attributes": {"x": 7}, "emitter": "p1"}\n'
    )
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "principals": [{"id": "p1", "secret": "k1"}, {"id": "s1", "secret": "k2"}],
        "peers": ["peer-1"], "target": "04" + "0" * 62, "gossip_seed": 1, "max_rounds": 20,
        "roles": {"p1": ["R"], "s1": ["S"]},
    }))
    assert run_cli("parse", str(spec)) == EXIT_WELL_FORMEDNESS
    out = tmp_path / "report.json"
    argv = ["run", "--spec", str(spec), "--scenario", str(scenario), "--net", str(net), "--out", str(out)]
    assert run_cli(*argv) == EXIT_WELL_FORMEDNESS
    assert not out.exists()
    assert "role R takes x, which fills int parameters" in capsys.readouterr().err


def test_a_create_whose_alternatives_bind_different_names_stops_parse(tmp_path, capsys):
    # an A-instance binds x alone, so its subject y would name no principal
    # and its violation would reach no trust row
    spec = tmp_path / "or.cpt"
    spec.write_text(
        "compact P context org { roles R; schema A(x: text key); schema B(x: text key, y: text key); "
        "schema Go(x: text key); channel m members R carries A, B, Go; "
        "commitment K subject R: y object R { create on (A(x) or B(x, y)) and Go(x); "
        "consequent Go(x) within 3 blocks; } }"
    )
    assert run_cli("parse", str(spec)) == EXIT_WELL_FORMEDNESS
    assert "create alternatives bind different variables" in capsys.readouterr().err


def test_a_repeated_fact_attribute_stops_parse(tmp_path, capsys):
    spec = tmp_path / "dup.cpt"
    spec.write_text(
        "compact P context org { roles R; schema A(x: text key, y: text out); "
        "channel m members R carries A; counts-as G(a: x, a: y) from A(x, y) by R; }"
    )
    assert run_cli("parse", str(spec)) == EXIT_WELL_FORMEDNESS
    assert "counts-as G names attribute a twice" in capsys.readouterr().err


def test_parse_missing_file_exit_usage(capsys):
    assert run_cli("parse", "/nonexistent/nothing.cpt") == EXIT_USAGE


def test_unknown_subcommand_exit_usage(capsys):
    assert run_cli("frobnicate") == EXIT_USAGE


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # an in-process caller such as the benchmark runs main once per pass
    run_cli("parse", str(DEMOS / "minimal.cpt"))
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(init(self, *a, **k)))
    assert run_cli("parse", str(DEMOS / "minimal.cpt")) == EXIT_OK
    assert run_cli("frobnicate") == EXIT_USAGE
    assert built == []


def test_run_and_eval_compute_their_compact_s_diagnostics_once(monkeypatch, tmp_path):
    # the CLI checks the compact and the engine checks it again: the spec
    # keeps its diagnostics, so each command computes them once
    computed = []
    diagnose = checks._diagnose
    monkeypatch.setattr(checks, "_diagnose", lambda spec: computed.append(spec.name) or diagnose(spec))
    spec, report, chain = str(DEMOS / "hospital.cpt"), tmp_path / "report.json", tmp_path / "chain.json"
    assert run_cli(
        "run", "--spec", spec, "--scenario", str(DEMOS / "hospital_violation.jsonl"),
        "--net", str(DEMOS / "hospital_net.json"), "--out", str(report), "--chain-out", str(chain),
    ) == EXIT_OK
    assert computed == ["HospitalCare"]
    assert run_cli("eval", "--chain", str(chain), "--spec", spec, "--out", str(report)) == EXIT_OK
    assert computed == ["HospitalCare"] * 2


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


def test_eval_and_verify_chain_say_the_check_was_structure_only(tmp_path, capsys):
    # neither command is given a target, roster or rules to check against
    chain = str(FIXTURES / "golden_chain.json")
    assert run_cli("verify-chain", chain) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("ok: ") and "structure only" in err
    out = tmp_path / "report.json"
    assert run_cli("eval", "--chain", chain, "--spec", str(DEMOS / "minimal.cpt"), "--out", str(out)) == EXIT_OK
    assert "structure only: target, signatures and admission not checked" in capsys.readouterr().err


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
        dict(ADMIT, logical_ts=True),
        dict(ADMIT, attributes={"patient": None, "nurse": "bob"}),
        dict(ADMIT, attributes={"patient": ["charlie"], "nurse": "bob"}),
        dict(ADMIT, attributes={"patient": "\ud800", "nurse": "bob"}),
        dict(ADMIT, emitter="hosp\udfffital"),
    ],
    ids=["negative-ts", "ts-over-u64", "attribute-over-i64", "attribute-under-i64", "float-attribute",
         "bool-ts", "null-attribute", "list-attribute", "surrogate-attribute", "surrogate-emitter"],
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


def _golden(path, value, block=4) -> bytes:
    """The golden chain snapshot with one field of a block, 4 unless given, set to value."""
    data = json.loads((FIXTURES / "golden_chain.json").read_text())
    record = data["blocks"][block]
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("logical_ts", -1),
        ("logical_ts", True),
        ("logical_ts", 2**64),
        ("event_id", "e\ud800"),
        ("event_type", 5),
        ("emitter", None),
        ("attributes", {"value": 2**63}),
        ("attributes", {"value": 1.5}),
        ("attributes", {"value": None}),
        ("attributes", {"\udc00": 1}),
    ],
)
def test_eval_unencodable_event_exit_65_at_its_block(tmp_path, capsys, field, value):
    snapshot = tmp_path / "chain.json"
    snapshot.write_bytes(_golden(("events", 0, field), value))
    argv = ["--chain", str(snapshot), "--spec", str(DEMOS / "hospital.cpt"), "--out", str(tmp_path / "r.json")]
    assert run_cli("eval", *argv) == EXIT_DATA
    assert "error: block 4: bad event record: event " in capsys.readouterr().err


def _scenario(**changes) -> bytes:
    return json.dumps(dict(ADMIT, **changes)).encode() + b"\n"


def _net(**changes) -> bytes:
    data = json.loads((DEMOS / "hospital_net.json").read_text())
    return json.dumps(dict(data, **changes)).encode()


def _report_row(**changes) -> bytes:
    """A report with one trust row, its fields changed as given."""
    row = dict(principal="alice", norm_id="S", satisfied=1, violated=0, score=0.666667)
    return json.dumps({"instances": [], "trust": [dict(row, **changes)]}).encode()


HOSPITAL_CPT = (DEMOS / "hospital.cpt").read_text()
P1_CREATE = "Admit(patient, nurse)"


def _hospital_cpt(old: str, new: str) -> bytes:
    assert old in HOSPITAL_CPT
    return HOSPITAL_CPT.replace(old, new).encode()


def _deep_create(shape: str, depth: int) -> bytes:
    """The hospital compact with P1's create condition depth levels deep:
    depth parentheses around its pattern, or depth 'and's joining copies of it."""
    if shape == "parens":
        condition = "(" * depth + P1_CREATE + ")" * depth
    else:
        condition = " and ".join([P1_CREATE] * (depth + 1))
    return _hospital_cpt(f"create on {P1_CREATE};", f"create on {condition};")


NOT_UTF8 = b"\xff\xfe"
DEMO_PRINCIPALS = json.loads((DEMOS / "hospital_net.json").read_text())["principals"]

# input format, file contents; a .cpt file is a parse error (1), the rest data errors (65)
MALFORMED_INPUTS = {
    "scenario-attributes-array": ("scenario", _scenario(attributes=["x"])),
    "scenario-event-type-int": ("scenario", _scenario(event_type=5)),
    "scenario-unrostered-emitter": ("scenario", _scenario(emitter="mallory")),
    "scenario-not-utf8": ("scenario", _scenario()[:-3] + NOT_UTF8 + b'"}\n'),
    "scenario-round-negative": ("scenario", _scenario(round=-1, logical_ts=0)),
    "scenario-round-bool": ("scenario", _scenario(round=True)),
    # struct packs True as 1, so a boolean u64 would keep every digest
    "scenario-logical-ts-bool": ("scenario", _scenario(logical_ts=True)),
    "scenario-round-past-max-rounds": ("scenario", _scenario(round=1_000_000)),
    "snapshot-attributes-array": ("snapshot", _golden(("events", 0, "attributes"), ["x"])),
    "snapshot-emitter-int": ("snapshot", _golden(("events", 0, "emitter"), 5)),
    "snapshot-miner-int": ("snapshot", _golden(("header", "miner"), 5)),
    "snapshot-blocks-int": ("snapshot", b'{"blocks": 5}'),
    "snapshot-index-bool": ("snapshot", _golden(("header", "index"), True, block=1)),
    "snapshot-nonce-bool": ("snapshot", _golden(("header", "nonce"), False, block=9)),
    "snapshot-not-utf8": ("snapshot", b'{"blocks": "' + NOT_UTF8 + b'"}'),
    "net-role-list-int": ("net", _net(roles={"bob": 5})),
    "net-roles-array": ("net", _net(roles=[1])),
    "net-no-peers": ("net", _net(peers=[])),
    "net-duplicate-peer": ("net", _net(peers=["peer-1", "peer-2", "peer-1"])),
    "net-duplicate-principal": ("net", _net(principals=DEMO_PRINCIPALS + [{"id": "bob", "secret": "k"}])),
    "net-zero-target": ("net", _net(target="0")),
    "net-target-below-floor": ("net", _net(target="1")),
    "net-max-rounds-text": ("net", _net(max_rounds="5")),
    "net-max-rounds-bool": ("net", _net(max_rounds=True)),
    "net-gossip-seed-bool": ("net", _net(gossip_seed=True)),
    "net-not-utf8": ("net", _net()[:-1] + b', "x": "' + NOT_UTF8 + b'"}'),
    "report-trust-row-lacks-fields": ("report", b'{"instances": [], "trust": [{"principal": "bob"}]}'),
    "report-trust-score-past-float": ("report", _report_row(score=10**400)),
    "report-trust-score-above-one": ("report", _report_row(score=1.5)),
    "report-trust-count-bool": ("report", _report_row(satisfied=True)),
    "report-not-utf8": ("report", b'{"instances": [], "x": "' + NOT_UTF8 + b'"}'),
    "cpt-not-utf8": ("cpt", NOT_UTF8 + (DEMOS / "hospital.cpt").read_bytes()),
    "cpt-superscript-digit": ("cpt", _hospital_cpt("within 100 blocks", "within \u00b2 blocks")),
    "cpt-int-5000-digits": ("cpt", _hospital_cpt("within 100 blocks", f"within {'9' * 5000} blocks")),
    "cpt-nested-300-parens": ("cpt", _deep_create("parens", 300)),
    "cpt-and-chain-600": ("cpt", _deep_create("and", 599)),
}
HOSTILE_CPT = [name for name in MALFORMED_INPUTS if name.startswith("cpt-") and name != "cpt-not-utf8"]


@pytest.mark.parametrize("fmt, payload", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_exits_with_its_documented_code(tmp_path, capsys, fmt, payload):
    path = tmp_path / f"input.{fmt}"
    path.write_bytes(payload)
    expected = EXIT_PARSE if fmt == "cpt" else EXIT_DATA
    assert run_cli(*cli_argv(fmt, path, tmp_path / "report.json")) == expected
    err = capsys.readouterr().err
    assert "error" in err
    # A bad network config is refused as such, not by a later check on a value it let through.
    assert fmt != "net" or "network config" in err


def _cli_subprocess(argv, timeout=60, **env):
    """compacts argv in a fresh interpreter, with env added to its environment."""
    return subprocess.run(
        [sys.executable, "-m", "compacts.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src"), **env),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _hospital_run(spec, out) -> list[str]:
    """The compacts command that runs the hospital violation scenario on spec."""
    return [
        "run",
        "--spec", str(spec),
        "--scenario", str(DEMOS / "hospital_violation.jsonl"),
        "--net", str(DEMOS / "hospital_net.json"),
        "--out", str(out),
    ]


@pytest.mark.parametrize("name", HOSTILE_CPT)
def test_hostile_compact_fails_run_without_a_traceback(tmp_path, capsys, name):
    spec = tmp_path / "hostile.cpt"
    spec.write_bytes(MALFORMED_INPUTS[name][1])
    argv = _hospital_run(spec, tmp_path / "report.json")
    assert run_cli(*argv) == EXIT_PARSE
    assert "hostile.cpt:" in capsys.readouterr().err
    done = _cli_subprocess(argv)
    assert done.returncode == EXIT_PARSE
    assert "hostile.cpt:" in done.stderr and "error:" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("shape", ["parens", "and"])
def test_create_condition_at_the_depth_bound_runs(tmp_path, capsys, shape):
    assert run_cli(*_hospital_run(DEMOS / "hospital.cpt", tmp_path / "plain.json")) == EXIT_OK
    at_bound = tmp_path / "at_bound.cpt"
    at_bound.write_bytes(_deep_create(shape, MAX_CONDITION_DEPTH))
    assert run_cli(*_hospital_run(at_bound, tmp_path / "at_bound.json")) == EXIT_OK
    plain, deep = (json.loads((tmp_path / f).read_text()) for f in ("plain.json", "at_bound.json"))
    assert deep["instances"] == plain["instances"]
    capsys.readouterr()
    past_bound = tmp_path / "past_bound.cpt"
    past_bound.write_bytes(_deep_create(shape, MAX_CONDITION_DEPTH + 1))
    assert run_cli(*_hospital_run(past_bound, tmp_path / "past_bound.json")) == EXIT_PARSE
    assert f"nested deeper than {MAX_CONDITION_DEPTH} levels" in capsys.readouterr().err


def test_duplicate_diagnostics_do_not_depend_on_the_hash_seed(tmp_path):
    norm = """
  commitment {} subject R: x object R: x {{
    create on A(x);
    consequent A(x) within 5 blocks;
  }}"""
    body = "".join(norm.format(name) for name in ("Alpha", "Beta", "Gamma") * 2)
    spec = tmp_path / "repeats.cpt"
    spec.write_text(
        "compact T context c {\n  roles R;\n  schema A(x: text key);\n"
        f"  channel m members R carries A;{body}\n}}\n"
    )
    stderrs = []
    for seed in ("1", "2", "3"):
        done = _cli_subprocess(["parse", str(spec)], PYTHONHASHSEED=seed)
        assert done.returncode == EXIT_WELL_FORMEDNESS
        stderrs.append(done.stderr)
    assert stderrs[0] == stderrs[1] == stderrs[2]
    assert [line.split()[-3] for line in stderrs[0].splitlines()] == ["Alpha", "Beta", "Gamma"]


def test_run_and_eval_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    outputs = []
    for seed in ("0", "1", "2", "3"):
        report, chain, evaluated = (tmp_path / f"{name}-{seed}.json" for name in ("run", "chain", "eval"))
        run = _hospital_run(DEMOS / "hospital.cpt", report) + ["--chain-out", str(chain)]
        evaluate = [
            "eval", "--chain", str(chain), "--spec", str(DEMOS / "hospital.cpt"),
            "--net", str(DEMOS / "hospital_net.json"), "--out", str(evaluated),
        ]
        for argv in (run, evaluate):
            done = _cli_subprocess(argv, PYTHONHASHSEED=seed)
            assert done.returncode == EXIT_OK, done.stderr
        outputs.append([path.read_bytes() for path in (report, chain, evaluated)])
    assert all(output == outputs[0] for output in outputs[1:])


def test_run_skips_the_idle_rounds_before_a_late_submission(tmp_path):
    # nothing is in flight between the violation demo's first events and its
    # last one, so a run waiting 10**12 rounds for it must not step through them
    net = json.loads((DEMOS / "hospital_net.json").read_text())
    net["max_rounds"] = 10**13
    (tmp_path / "net.json").write_text(json.dumps(net))
    lines = [json.loads(line) for line in (DEMOS / "hospital_violation.jsonl").read_text().splitlines()]
    reports = {}
    for last_round in (10**5, 10**12):
        lines[-1]["round"] = last_round
        scenario, out = tmp_path / f"late-{last_round}.jsonl", tmp_path / f"report-{last_round}.json"
        scenario.write_text("".join(json.dumps(line) + "\n" for line in lines))
        argv = [
            "run", "--spec", str(DEMOS / "hospital.cpt"), "--scenario", str(scenario),
            "--net", str(tmp_path / "net.json"), "--out", str(out),
        ]
        done = _cli_subprocess(argv, timeout=10)
        assert done.returncode == EXIT_OK, done.stderr
        reports[last_round] = json.loads(out.read_text())
    near, far = reports[10**5], reports[10**12]
    assert near["network"].pop("rounds_used") == 10**5 + 3
    assert far["network"].pop("rounds_used") == 10**12 + 3
    assert far == near and near["network"]["converged"]


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
