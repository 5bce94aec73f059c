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
