"""Acceptance gate: every criterion at its stated tolerance.

Run with -s (or -rA) to see one PASS line per criterion; each test body is
one criterion, self-contained, and asserts the exact tolerances. Expected
values marked as derived were computed with the independent oracles embedded
here (exact Fraction arithmetic, brute-force enumeration, byte-level
mutation sampling), not with the code paths under test.
"""

import json
import random
import time
from fractions import Fraction

from compacts.cli import EXIT_OK, main as cli_main
from compacts.evaluator import evaluate
from compacts.fileformats import read_network_config, read_scenario
from compacts.governance import Organization, ruleset_from_spec
from compacts.incremental import apply_block, initial_state
from compacts.lang import parse_compact, pretty_print
from compacts.ledger import Block, Chain, Event, verify_chain
from compacts.network import NetworkConfig, run_network
from compacts.trust import TrustScore
from compacts.validator import LedgerIndex, check_integrity
from compacts.ledger import canonical_serialize

from conftest import DEMOS, FIXTURES
from scenario_gen import extend_randomly, random_case
from test_validator import RULES as VALIDATOR_RULES, _random_event, ev as validator_ev

import glob


def _passed(number, label):
    print(f"ACCEPTANCE {number:02d} PASS  {label}")


def _run_pipeline(scenario_name, out_path):
    code = cli_main([
        "run",
        "--spec", str(DEMOS / "hospital.cpt"),
        "--scenario", str(DEMOS / scenario_name),
        "--net", str(DEMOS / "hospital_net.json"),
        "--out", str(out_path),
    ])
    assert code == EXIT_OK
    return json.loads(out_path.read_text())


def test_criterion_01_healthcare_violation_narrative(tmp_path):
    started = time.monotonic()
    report = _run_pipeline("hospital_violation.jsonl", tmp_path / "violation.json")
    elapsed = time.monotonic() - started

    instances = {i["norm_id"]: i for i in report["instances"]}
    assert set(instances) == {"P1", "C1"}
    p1 = instances["P1"]
    assert p1["bindings"] == {"nurse": "bob", "patient": "charlie"}
    assert p1["state"] == "violated"

    fact_names = {f["name"] for f in report["facts"]}
    assert "violated(P1)" in fact_names

    def pos(value):
        return (value["block_index"], value["offset_in_block"])

    c1 = instances["C1"]
    assert c1["bindings"] == {"patient": "charlie"}
    assert c1["state"] == "satisfied"
    # created by the violation, detached by the complaint, closed by the report
    assert pos(c1["created_at"]) == pos(p1["closed_at"])
    assert pos(c1["detached_at"]) > pos(c1["created_at"])
    assert pos(c1["closed_at"]) > pos(c1["detached_at"])
    assert "detached(C1)" in fact_names and "satisfied(C1)" in fact_names

    trust = {(t["principal"], t["norm_id"]): t["score"] for t in report["trust"]}
    assert trust[("bob", "P1")] == 0.333333

    assert elapsed < 5.0, f"end-to-end run took {elapsed:.2f}s"
    _passed(1, f"violation narrative exact; {elapsed:.2f}s < 5s")


def test_criterion_02_compliant_variant(tmp_path):
    report = _run_pipeline("hospital_compliant.jsonl", tmp_path / "compliant.json")
    instances = {i["norm_id"]: i for i in report["instances"]}
    assert set(instances) == {"P1"}  # C1 never created
    assert instances["P1"]["state"] == "satisfied"
    trust = {(t["principal"], t["norm_id"]): t["score"] for t in report["trust"]}
    assert trust[("bob", "P1")] == 0.666667
    _passed(2, "consent flips P1 to satisfied at discharge; C1 absent; trust 0.666667")


def test_criterion_03_replay_equivalence():
    started = time.monotonic()
    for seed in range(100):
        spec, org, chain, _ = random_case(seed, max_events=50)
        batch = evaluate(chain, spec, org)
        state = initial_state(spec, org)
        for block in chain.blocks[1:]:
            state = apply_block(state, block)
        assert state == batch, f"divergence at seed {seed}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _passed(3, f"100/100 seeded scenarios: incremental == batch; {elapsed:.1f}s < 60s")


def test_criterion_04_terminal_stability():
    checked = 0
    for seed in range(100):
        spec, org, chain, roster = random_case(seed, max_events=50)
        state = evaluate(chain, spec, org)
        terminal = {
            (inst.norm_id, inst.key_bindings): inst.state for inst in state.instances.values() if inst.is_terminal()
        }
        extended = extend_randomly(chain, seed=seed + 50_000, blocks=3, roster=roster)
        later = evaluate(extended, spec, org)
        for key, frozen in terminal.items():
            assert later.instances[key].state is frozen, f"terminal flip at seed {seed}: {key}"
            checked += 1
    _passed(4, f"terminal states stable under extension ({checked} instances over 100 chains)")


def test_criterion_05_consensus_convergence():
    roster = tuple((f"client-{i}", f"key-{i}") for i in range(4))
    submissions = [
        (i // 4, Event.make(f"evt-{i:05d}", "Reading", {"sensor": f"s{i % 3}", "value": i},
                            f"client-{i % 4}", i))
        for i in range(20)
    ]
    converged = 0
    for seed in range(20):
        config = NetworkConfig(
            principals=roster,
            peers=tuple(f"peer-{i}" for i in range(5)),
            target=1 << 248,
            gossip_seed=seed,
            max_rounds=30,  # >= peers + submissions
        )
        result = run_network(submissions, config)
        assert result.converged, f"seed {seed} did not converge"
        digests = {chain.tip_digest() for _, chain in result.chains}
        assert len(digests) == 1, f"seed {seed}: peers disagree"
        for _, chain in result.chains:
            assert verify_chain(chain, target=config.target, roster=dict(roster)) is None
        converged += 1
    assert converged == 20
    _passed(5, "20/20 seeds: 5 peers converge to one verified chain")


def _mutate_text(rng, value):
    index = rng.randrange(len(value))
    flipped = chr((ord(value[index]) + 1 - 32) % 95 + 32)
    return value[:index] + flipped + value[index + 1 :]


def _mutate_event(rng, event):
    """Flip one byte's worth of one event field; returns a distinct event."""
    choices = ["event_id", "event_type", "emitter", "logical_ts", "signature", "attribute"]
    field = rng.choice(choices)
    event_id, event_type = event.event_id, event.event_type
    attributes = dict(event.attributes)
    emitter, logical_ts, signature = event.emitter, event.logical_ts, event.signature
    if field == "event_id":
        event_id = _mutate_text(rng, event_id)
    elif field == "event_type":
        event_type = _mutate_text(rng, event_type)
    elif field == "emitter":
        emitter = _mutate_text(rng, emitter)
    elif field == "logical_ts":
        logical_ts = logical_ts ^ (1 << rng.randrange(8))
    elif field == "signature":
        index = rng.randrange(len(signature))
        signature = (
            signature[:index]
            + bytes([signature[index] ^ (1 << rng.randrange(8))])
            + signature[index + 1 :]
        )
    else:
        name = rng.choice(sorted(attributes))
        value = attributes[name]
        if isinstance(value, bool):
            attributes[name] = not value
        elif isinstance(value, int):
            attributes[name] = value ^ (1 << rng.randrange(8))
        else:
            attributes[name] = _mutate_text(rng, value)
    return Event.make(event_id, event_type, attributes, emitter, logical_ts, signature)


def test_criterion_06_tamper_evidence():
    from compacts.fileformats import read_chain

    chain = read_chain(str(FIXTURES / "golden_chain.json"))
    assert verify_chain(chain) is None
    rng = random.Random(4242)
    detected = 0
    samples = 120
    for _ in range(samples):
        block_index = rng.randrange(1, len(chain.blocks))
        block = chain.blocks[block_index]
        offset = rng.randrange(len(block.events))
        original = block.events[offset]
        mutated = _mutate_event(rng, original)
        assert canonical_serialize(mutated) != canonical_serialize(original)
        events = list(block.events)
        events[offset] = mutated
        blocks = list(chain.blocks)
        blocks[block_index] = Block(block.header, tuple(events))
        verdict = verify_chain(Chain(blocks=tuple(blocks)))
        assert verdict is not None, "tampering went undetected"
        assert verdict.index <= block_index
        detected += 1
    assert detected == samples
    _passed(6, f"{detected}/{samples} single-byte event mutations detected at or before their block")


def test_criterion_07_validator_properties():
    # named-reason fixtures
    first = validator_ev("e1", "InvestigationReport", {"case": "k1", "verdict": "negligent"})
    second = validator_ev("e2", "InvestigationReport", {"case": "k1", "verdict": "excused"})
    verdict = check_integrity(second, LedgerIndex(VALIDATOR_RULES, [first]))
    assert [v.code for v in verdict] == ["KeyConflict"]

    unbound = validator_ev("e3", "Followup", {"visit": "v1", "patient": "zed"})
    verdict = check_integrity(unbound, LedgerIndex(VALIDATOR_RULES))
    assert [v.code for v in verdict] == ["UnboundInParameter"]

    # monotonicity: key-conflict rejections survive 1,000 randomized extensions
    rng = random.Random(31337)
    extensions = 0
    while extensions < 1000:
        prefix = [_random_event(rng, i) for i in range(rng.randint(0, 8))]
        candidate = _random_event(rng, 99)
        if not any(
            v.code == "KeyConflict"
            for v in check_integrity(candidate, LedgerIndex(VALIDATOR_RULES, prefix))
        ):
            continue
        for _ in range(rng.randint(1, 6)):
            prefix = prefix + [_random_event(rng, 1000 + extensions)]
            still = check_integrity(candidate, LedgerIndex(VALIDATOR_RULES, prefix))
            assert any(v.code == "KeyConflict" for v in still)
            extensions += 1
    _passed(7, "named rejections exact; key conflicts never healed over 1000 extensions")


def test_criterion_08_parser_round_trip():
    corpus = sorted(glob.glob(str(DEMOS / "*.cpt")))
    assert len(corpus) >= 10
    for path in corpus:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        spec = parse_compact(text)
        assert parse_compact(pretty_print(spec)) == spec, path
    _passed(8, f"parse . pretty_print . parse == parse on {len(corpus)} compacts")


def test_criterion_09_counts_as_gate():
    spec = parse_compact((DEMOS / "tumorboard.cpt").read_text())
    config, roles = read_network_config(str(DEMOS / "tumorboard_net.json"))
    org = Organization.make(spec.context, roles)
    rules = ruleset_from_spec(spec)

    outcomes = {}
    for name in ("tumorboard_member.jsonl", "tumorboard_nonmember.jsonl"):
        scenario = read_scenario(str(DEMOS / name))
        result = run_network(scenario, config, rules=rules, org=org)
        assert result.converged
        state = evaluate(result.active_chain, spec, org)
        outcomes[name] = {(f.name, tuple(f.bindings)) for f in state.facts}

    member = outcomes["tumorboard_member.jsonl"]
    assert ("Benign", (("tumor", "t7"),)) in member
    nonmember = outcomes["tumorboard_nonmember.jsonl"]
    assert not any(name == "Benign" for name, _ in nonmember)
    _passed(9, "Benign(t7) derived only under the TumorBoard role")


def test_criterion_10_trust_formula():
    checked = 0
    for s in range(0, 11):
        for v in range(0, 11 - s):
            oracle = Fraction(s + 1, s + v + 2)  # Beta mean, exact arithmetic
            produced = TrustScore("p", "N", s, v).score
            assert produced == float(oracle), (s, v)
            checked += 1
    _passed(10, f"score table exact against Fraction oracle for {checked} (s,v) pairs")
