#!/usr/bin/env python3
"""The healthcare story end to end: nurse Bob shares patient Charlie's data
without consent; the prohibition is violated, which activates the hospital's
commitment to investigate; the investigation discharges it.

Run from the repository root:  python demos/demo_hospital.py
"""

from pathlib import Path

from compacts.evaluator import evaluate
from compacts.fileformats import read_network_config, read_scenario
from compacts.governance import Organization, ruleset_from_spec
from compacts.lang import parse_compact
from compacts.network import run_network
from compacts.trust import trust_report

HERE = Path(__file__).parent


def show(title, rows):
    print(f"\n== {title} ==")
    for row in rows:
        print("  " + row)


def main():
    spec = parse_compact((HERE / "hospital.cpt").read_text())
    config, roles = read_network_config(str(HERE / "hospital_net.json"))
    org = Organization.make(spec.context, roles)
    rules = ruleset_from_spec(spec)

    for scenario_file in ("hospital_violation.jsonl", "hospital_compliant.jsonl"):
        scenario = read_scenario(str(HERE / scenario_file))
        result = run_network(scenario, config, rules=rules, org=org)
        state = evaluate(result.active_chain, spec, org)

        show(scenario_file, [
            f"network converged={result.converged} after {result.rounds_used} rounds, "
            f"{len(result.active_chain.blocks)} blocks",
        ])
        for inst in state.instances_in_order():
            bindings = ", ".join(f"{k}={v}" for k, v in inst.key_bindings)
            extra = f" (violating event {inst.violating_event})" if inst.violating_event else ""
            print(f"  {inst.norm_id}[{bindings}] -> {inst.state.value}{extra}")
        for fact in state.facts_in_order():
            bindings = ", ".join(f"{k}={v}" for k, v in fact.bindings)
            print(f"  fact {fact.name}[{bindings}] at block {fact.witness.block_index}")
        for row in trust_report(state):
            print(f"  trust {row.principal}/{row.norm_id}: "
                  f"s={row.satisfied} v={row.violated} score={row.score:.6f}")


if __name__ == "__main__":
    main()
