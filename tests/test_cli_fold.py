"""`compacts run` and `compacts eval` evaluate by folding apply_block; batch
evaluate is the reference. Each command must write the same report bytes
whichever of the two engines cli.evaluate is bound to."""

import json

import pytest

from compacts import cli, evaluator, incremental
from compacts.fileformats import write_chain
from compacts.ledger import GENESIS_BLOCK, Chain

from conftest import DEMOS, bench_generators


def _reports(monkeypatch, tmp_path, argv) -> list[bytes]:
    """Report bytes of one command under the fold, then under batch evaluate."""
    assert cli.evaluate is incremental.fold_chain
    reports = []
    for engine in ("fold", "batch"):
        if engine == "batch":
            monkeypatch.setattr(cli, "evaluate", evaluator.evaluate)
        out = tmp_path / f"{engine}.report.json"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        reports.append(out.read_bytes())
    return reports


def _write_json(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _run_argv(spec, scenario, net):
    return ["run", "--spec", str(DEMOS / spec), "--scenario", str(scenario), "--net", str(net)]


@pytest.mark.parametrize("spec, scenario, net", [
    ("hospital.cpt", "hospital_violation.jsonl", "hospital_net.json"),
    ("hospital.cpt", "hospital_compliant.jsonl", "hospital_net.json"),
    ("tumorboard.cpt", "tumorboard_member.jsonl", "tumorboard_net.json"),
    ("tumorboard.cpt", "tumorboard_nonmember.jsonl", "tumorboard_net.json"),
    ("coldchain.cpt", "coldchain.jsonl", "coldchain_net.json"),
    ("liftservice.cpt", "liftservice.jsonl", "liftservice_net.json"),
])
def test_run_reports_on_the_demos_equal_batch(monkeypatch, tmp_path, spec, scenario, net):
    fold, batch = _reports(monkeypatch, tmp_path, _run_argv(spec, DEMOS / scenario, DEMOS / net))
    assert fold == batch


@pytest.mark.parametrize("seed", [1, 2])
def test_run_reports_on_generated_hospital_scenarios_equal_batch(monkeypatch, tmp_path, seed):
    lines, config = bench_generators().hospital_inputs(seed, 12)
    scenario = tmp_path / "scenario.jsonl"
    scenario.write_text("".join(json.dumps(line) + "\n" for line in lines))
    net = _write_json(tmp_path / "net.json", config)
    fold, batch = _reports(monkeypatch, tmp_path, _run_argv("hospital.cpt", scenario, net))
    assert fold == batch


@pytest.mark.parametrize("seed", [1, 2])
def test_eval_reports_on_generated_datatrust_chains_equal_batch(monkeypatch, tmp_path, seed):
    blocks, config = bench_generators().datatrust_inputs(seed, 24)
    chain = tmp_path / "chain.json"
    write_chain(Chain(blocks=(GENESIS_BLOCK,) + tuple(blocks)), str(chain))
    net = _write_json(tmp_path / "net.json", config)
    argv = ["eval", "--chain", str(chain), "--spec", str(DEMOS / "datatrust.cpt"), "--net", net]
    fold, batch = _reports(monkeypatch, tmp_path, argv)
    assert fold == batch


def test_eval_report_on_a_demo_chain_equals_batch(monkeypatch, tmp_path):
    chain = tmp_path / "chain.json"
    argv = _run_argv("hospital.cpt", DEMOS / "hospital_violation.jsonl", DEMOS / "hospital_net.json")
    assert cli.main([*argv, "--out", str(tmp_path / "run.json"), "--chain-out", str(chain)]) == cli.EXIT_OK
    argv = ["eval", "--chain", str(chain), "--spec", str(DEMOS / "hospital.cpt"),
            "--net", str(DEMOS / "hospital_net.json")]
    fold, batch = _reports(monkeypatch, tmp_path, argv)
    assert fold == batch


# Run, this compact would have batch evaluate key C by x=1 and the fold by
# x=true: the reports would differ in their bytes, yet compare equal once
# parsed, as 1 == True. F's x is A's int x, so the checker refuses it.
KEYED_BY_TWO_KINDS = """compact Probe context org {
  roles R;
  schema A(x: int key);
  schema B(y: text key, x: bool out);
  channel m members R carries A, B;
  counts-as F(x) from A(x) by R;
  commitment C subject R object R {
    create on fact F(x) and B(y, x);
    consequent B(y: "never", x) within 5 blocks;
  }
}
"""


def test_a_norm_keyed_by_two_kinds_is_refused_before_either_engine_runs(tmp_path, capsys):
    spec = tmp_path / "probe.cpt"
    spec.write_text(KEYED_BY_TWO_KINDS)
    scenario = tmp_path / "probe.jsonl"
    scenario.write_text(
        '{"round": 0, "event_type": "A", "attributes": {"x": 1}, "emitter": "r"}\n'
        '{"round": 1, "event_type": "B", "attributes": {"y": "q", "x": true}, "emitter": "r"}\n'
    )
    net = _write_json(tmp_path / "net.json", {
        "principals": [{"id": "r", "secret": "k"}], "peers": ["p1"], "target": "04" + "0" * 62,
        "gossip_seed": 1, "max_rounds": 10, "roles": {"r": ["R"]},
    })
    assert cli.main(["parse", str(spec)]) == cli.EXIT_WELL_FORMEDNESS
    argv = ["run", "--spec", str(spec), "--scenario", str(scenario), "--net", net,
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == cli.EXIT_WELL_FORMEDNESS
    assert "norm C: variable x fills int and bool parameters" in capsys.readouterr().err
