"""Same network outcomes: 150 bench-generated hospital runs, held to the
table in fixtures/golden_network_runs.json.

The runs are bench/generators.py's hospital_inputs(1000 + k, patients) for
k in 0..49 and 10, 20 and 40 patients, read through the scenario and
network-config readers and run under hospital.cpt's rules and roles, as
compacts run does. For each run the table holds the active chain's tip
digest, every peer's tip digest in peer-id order, rounds_used and converged.

On a mismatch the test prints the new table in the fixture's format. A change
meant to alter these outcomes replaces the fixture with it by hand and says
why.
"""

from __future__ import annotations

import json

from compacts.fileformats import read_network_config, read_scenario
from compacts.governance import Organization, ruleset_from_spec
from compacts.network import run_network

from conftest import FIXTURES, bench_generators

GOLDEN = FIXTURES / "golden_network_runs.json"
SEEDS = range(1000, 1050)
PATIENTS = (10, 20, 40)


def network_runs_table(spec, work) -> dict:
    """Each generated run's outcome, keyed by "<seed>-<patients>"."""
    generators, rules = bench_generators(), ruleset_from_spec(spec)
    table = {}
    for seed in SEEDS:
        for patients in PATIENTS:
            lines, net = generators.hospital_inputs(seed, patients)
            scenario_path, net_path = work / "scenario.jsonl", work / "net.json"
            scenario_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
            net_path.write_text(json.dumps(net))
            config, roles = read_network_config(str(net_path))
            org = Organization.make(spec.context, roles)
            result = run_network(read_scenario(str(scenario_path)), config, rules=rules, org=org)
            table[f"{seed}-{patients}"] = {
                "active_tip": result.active_chain.tip_digest().hex(),
                "peer_tips": [chain.tip_digest().hex() for _, chain in result.chains],
                "rounds_used": result.rounds_used,
                "converged": result.converged,
            }
    return table


def test_every_generated_network_run_matches_the_golden_table(hospital_spec, tmp_path):
    table = network_runs_table(hospital_spec, tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if table != golden:
        print(json.dumps(table, indent=2, sort_keys=True))
    assert table == golden
