"""Same outputs: exit codes, printed text and written files of a fixed set of
CLI commands, held to the table in fixtures/golden_outputs.json.

For each command the table holds the exit code, the stdout and stderr text,
and the SHA-256 of each file the command writes. The commands are both
hospital demos at the config's gossip seed and at --seed 7, 3 and 9, both
tumorboard scenarios, bench-generated hospital runs at 40 and 20 patients
and datatrust evals at 60 and 30 subjects at seeds 11-13, eval of both
hospital demo chains, trust and verify-chain on a demo report and chain,
parse of each bundled compact, and the coldchain and liftservice scenarios.
The last two encode boolean and integer attributes and join before and and
conditions, which no other command here does. Commands run from the
repository root, so a parse diagnostic names its compact by relative path.

On a mismatch the test prints the new table in the fixture's format. A change
meant to alter outputs replaces the fixture with it by hand and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from compacts import cli, fileformats, ledger

from conftest import DEMOS, FIXTURES, REPO, bench_generators

GOLDEN = FIXTURES / "golden_outputs.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bench_inputs(work: Path) -> list[tuple[str, list[str], dict[str, Path]]]:
    """Write the bench-generated inputs; return their commands."""
    generators = bench_generators()
    commands = []
    for patients in (40, 20):
        for seed in (11, 12, 13):
            stem = work / f"hospital-{patients}-{seed}"
            lines, config = generators.hospital_inputs(seed, patients)
            scenario, net = stem.with_suffix(".jsonl"), stem.with_suffix(".net.json")
            scenario.write_text("".join(json.dumps(line) + "\n" for line in lines))
            net.write_text(json.dumps(config))
            outputs = {"report": stem.with_suffix(".report.json"), "chain": stem.with_suffix(".chain.json")}
            commands.append((
                f"run hospital {patients} patients seed {seed}",
                ["run", "--spec", str(DEMOS / "hospital.cpt"), "--scenario", str(scenario),
                 "--net", str(net), "--out", str(outputs["report"]), "--chain-out", str(outputs["chain"])],
                outputs,
            ))
    for subjects in (60, 30):
        for seed in (11, 12, 13):
            stem = work / f"datatrust-{subjects}-{seed}"
            blocks, config = generators.datatrust_inputs(seed, subjects)
            chain, net = stem.with_suffix(".chain.json"), stem.with_suffix(".net.json")
            fileformats.write_chain(ledger.Chain(blocks=(ledger.GENESIS_BLOCK,) + tuple(blocks)), str(chain))
            net.write_text(json.dumps(config))
            outputs = {"report": stem.with_suffix(".report.json")}
            commands.append((
                f"eval datatrust {subjects} subjects seed {seed}",
                ["eval", "--chain", str(chain), "--spec", str(DEMOS / "datatrust.cpt"),
                 "--net", str(net), "--out", str(outputs["report"])],
                outputs,
            ))
    return commands


def _commands(work: Path) -> list[tuple[str, list[str], dict[str, Path]]]:
    """(name, argv, files written) for every command, in the order they run."""
    commands = []
    for scenario in ("compliant", "violation"):
        for seed in (None, 7, 3, 9):
            stem = work / f"hospital-{scenario}-{seed}"
            outputs = {"report": stem.with_suffix(".report.json"), "chain": stem.with_suffix(".chain.json")}
            argv = ["run", "--spec", str(DEMOS / "hospital.cpt"),
                    "--scenario", str(DEMOS / f"hospital_{scenario}.jsonl"),
                    "--net", str(DEMOS / "hospital_net.json"),
                    "--out", str(outputs["report"]), "--chain-out", str(outputs["chain"])]
            if seed is not None:
                argv += ["--seed", str(seed)]
            commands.append((f"run hospital {scenario} seed {seed or 'config'}", argv, outputs))
    for scenario in ("member", "nonmember"):
        stem = work / f"tumorboard-{scenario}"
        outputs = {"report": stem.with_suffix(".report.json"), "chain": stem.with_suffix(".chain.json")}
        commands.append((
            f"run tumorboard {scenario}",
            ["run", "--spec", str(DEMOS / "tumorboard.cpt"),
             "--scenario", str(DEMOS / f"tumorboard_{scenario}.jsonl"),
             "--net", str(DEMOS / "tumorboard_net.json"),
             "--out", str(outputs["report"]), "--chain-out", str(outputs["chain"])],
            outputs,
        ))
    commands += _bench_inputs(work)
    for scenario in ("compliant", "violation"):
        chain = work / f"hospital-{scenario}-None.chain.json"
        outputs = {"report": work / f"eval-{scenario}.report.json"}
        commands.append((
            f"eval hospital {scenario} chain",
            ["eval", "--chain", str(chain), "--spec", str(DEMOS / "hospital.cpt"),
             "--net", str(DEMOS / "hospital_net.json"), "--out", str(outputs["report"])],
            outputs,
        ))
    commands.append((
        "trust hospital violation report",
        ["trust", "--report", str(work / "hospital-violation-None.report.json")],
        {},
    ))
    commands.append(("verify-chain hospital violation chain", ["verify-chain", str(work / "hospital-violation-None.chain.json")], {}))
    for spec in sorted(DEMOS.glob("*.cpt")):
        commands.append((f"parse {spec.stem}", ["parse", str(spec.relative_to(REPO))], {}))
    for demo in ("coldchain", "liftservice"):
        stem = work / demo
        outputs = {"report": stem.with_suffix(".report.json"), "chain": stem.with_suffix(".chain.json")}
        commands.append((
            f"run {demo}",
            ["run", "--spec", str(DEMOS / f"{demo}.cpt"), "--scenario", str(DEMOS / f"{demo}.jsonl"),
             "--net", str(DEMOS / f"{demo}_net.json"),
             "--out", str(outputs["report"]), "--chain-out", str(outputs["chain"])],
            outputs,
        ))
    return commands


def golden_table(work: Path) -> dict:
    """Run every command with its outputs under work; return the table."""
    table = {}
    for name, argv, outputs in _commands(work):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), contextlib.chdir(REPO):
            code = cli.main(argv)
        table[name] = {
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "files": {label: _sha256(path) for label, path in outputs.items()},
        }
    return table


def test_cli_outputs_match_the_golden_table(tmp_path):
    table = golden_table(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if table != expected:
        print(json.dumps(table, indent=2))
    assert table == expected
