"""Deterministic gossip simulation and longest-chain convergence."""

import json
from collections import Counter
from dataclasses import replace

import pytest

from compacts import ledger, network
from compacts.fileformats import read_network_config, read_scenario
from compacts.governance import Organization, UnrosteredEmitter, ruleset_from_spec
from compacts.ledger import Block, mine_block, verify_chain
from compacts.network import NetworkConfig, Submission, run_network
from compacts.validator import LedgerIndex, check_integrity

from conftest import DEMOS, bench_generators, load_fixture

ROSTER = tuple((f"client-{i}", f"key-{i}") for i in range(4))


def make_config(peers=5, seed=42, target=1 << 248, max_rounds=30):
    return NetworkConfig(
        principals=ROSTER,
        peers=tuple(f"peer-{i}" for i in range(peers)),
        target=target,
        gossip_seed=seed,
        max_rounds=max_rounds,
    )


def make_submissions(count=20):
    return [
        Submission.make(i // 4, "Reading", {"sensor": f"s{i % 3}", "value": i}, f"client-{i % 4}", i)
        for i in range(count)
    ]


def test_golden_run_converges_and_reproduces_digest():
    gold = load_fixture("golden_network.json")
    config = make_config(seed=gold["seed"], target=int(gold["target_hex"], 16))
    result = run_network(make_submissions(gold["events"]), config)
    assert result.converged
    assert result.rounds_used == gold["rounds_used"]
    chain = result.active_chain
    assert len(chain.blocks) == gold["blocks"]
    assert chain.tip_digest().hex() == gold["tip_digest_hex"]


def test_all_peers_end_on_identical_chains():
    result = run_network(make_submissions(), make_config())
    digests = {chain.tip_digest() for _, chain in result.chains}
    assert len(digests) == 1
    for _, chain in result.chains:
        assert verify_chain(chain, target=1 << 248, roster=dict(ROSTER)) is None


def test_single_peer_converges_trivially_with_all_events():
    result = run_network(make_submissions(12), make_config(peers=1))
    assert result.converged
    chain = result.active_chain
    ids = {e.event_id for e in chain.events()}
    assert ids == {f"evt-{i:05d}" for i in range(12)}


def test_run_is_bit_identical_across_invocations():
    first = run_network(make_submissions(), make_config())
    second = run_network(make_submissions(), make_config())
    assert first == second


def test_different_seeds_still_converge():
    for seed in range(20):
        result = run_network(make_submissions(), make_config(seed=seed))
        assert result.converged, f"seed {seed} failed to converge"


def test_unrostered_emitter_is_rejected_up_front():
    bad = [Submission.make(0, "Reading", {"sensor": "s1", "value": 0}, "mallory", 0)]
    with pytest.raises(UnrosteredEmitter):
        run_network(bad, make_config())


def test_all_submitted_events_reach_the_active_chain():
    result = run_network(make_submissions(), make_config())
    chain = result.active_chain
    ids = {e.event_id for e in chain.events()}
    assert ids == {f"evt-{i:05d}" for i in range(20)}


@pytest.mark.parametrize("share_round, converged", [(2, True), (40, False)])
def test_a_submission_past_max_rounds_means_no_convergence(hospital_spec, share_round, converged):
    # the demo config's max_rounds is 40: a Share at round 40 is never
    # injected, so the run must not claim to have converged
    scenario = [
        replace(sub, round=share_round) if sub.event_type == "Share" else sub
        for sub in read_scenario(str(DEMOS / "hospital_violation.jsonl"))
    ]
    config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    org = Organization.make(hospital_spec.context, roles)
    result = run_network(scenario, config, rules=ruleset_from_spec(hospital_spec), org=org)
    assert config.max_rounds == 40
    assert result.converged is converged
    shared = any(e.event_type == "Share" for e in result.active_chain.events())
    assert shared is converged


def test_an_event_admission_refuses_costs_no_index_copy(monkeypatch, hospital_spec):
    # admission copies a peer's index only once it admits an event, so an
    # event refused round after round copies nothing; each mined block costs
    # one copy in admission and one in verify_chain
    config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    org = Organization.make(hospital_spec.context, roles)
    scenario = read_scenario(str(DEMOS / "hospital_violation.jsonl"))
    unbound = Submission.make(
        0, "InvestigationReport",
        {"report": "inv-002", "patient": "nobody", "nurse": "bob", "verdict": "upheld"}, "hospital",
    )
    copies = []
    real_copy = LedgerIndex.copy
    monkeypatch.setattr(LedgerIndex, "copy", lambda index: copies.append(index) or real_copy(index))
    for submissions in (scenario, scenario + [unbound]):
        copies.clear()
        result = run_network(submissions, config, rules=ruleset_from_spec(hospital_spec), org=org)
        events = [e for e in result.active_chain.events()]
        assert result.converged and len(events) == len(scenario)
        assert len(copies) == 2 * result.active_chain.height == 8


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
@pytest.mark.parametrize("admit_round, lone_peer", [(3, False), (0, False), (0, True)])
def test_an_event_admissible_only_after_a_later_one_is_still_mined(
    hospital_spec, seed, admit_round, lone_peer
):
    # the report's patient and nurse are in parameters: it is inadmissible
    # until the Admit is on the chain or chosen before it in the same block;
    # at round 0 the report comes first in seen order, and a second pass over
    # the pending events puts it in the Admit's block
    config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    if lone_peer:
        config = replace(config, peers=config.peers[:1])
    attributes = {"report": "inv-1", "patient": "charlie", "nurse": "bob", "verdict": "ok"}
    scenario = [
        Submission.make(0, "InvestigationReport", attributes, "hospital", 0),
        Submission.make(admit_round, "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital", 1),
    ]
    org = Organization.make(hospital_spec.context, roles)
    result = run_network(
        scenario, replace(config, gossip_seed=seed), rules=ruleset_from_spec(hospital_spec), org=org
    )
    assert result.converged
    mined = [e.event_type for e in result.active_chain.events()]
    assert mined == ["Admit", "InvestigationReport"]
    if lone_peer:
        blocks = [[e.event_type for e in b.events] for b in result.active_chain.blocks[1:]]
        assert blocks == [["Admit", "InvestigationReport"]]
        assert result.rounds_used == 1


def _postcondition_inputs(name, tmp_path):
    """A scenario and network config, read from files: the hospital demo's
    (demo), or a bench-generated hospital run (bench-<seed>-<patients>); on
    its first peer alone (lone-peer) or on five peers at an easier target,
    where peers mine competing blocks (five-peers)."""
    if name.startswith("bench"):
        _, seed, patients = name.split("-")[:3]
        lines, net = bench_generators().hospital_inputs(int(seed), int(patients))
        scenario_path, net_path = tmp_path / "scenario.jsonl", tmp_path / "net.json"
        scenario_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        net_path.write_text(json.dumps(net))
        scenario = read_scenario(str(scenario_path))
        config, roles = read_network_config(str(net_path))
    else:
        scenario = read_scenario(str(DEMOS / "hospital_violation.jsonl"))
        config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    if name.endswith("lone-peer"):
        config = replace(config, peers=config.peers[:1])
    if name.endswith("five-peers"):
        config = replace(config, peers=tuple(f"peer-{i}" for i in range(1, 6)), target=1 << 254)
    return scenario, config, roles


POSTCONDITION_RUNS = [
    "demo", "demo-lone-peer", "bench-3-10-five-peers",
    "bench-1-10", "bench-1-20", "bench-2-10", "bench-2-20",
]


@pytest.mark.parametrize("name", POSTCONDITION_RUNS)
def test_every_chain_a_run_returns_verifies_from_genesis(hospital_spec, tmp_path, name):
    # compacts run evaluates the active chain without verifying it again, so
    # every chain a run returns must pass from-genesis verification under the
    # run's context, hold every admissible submission and no refused one
    scenario, config, roles = _postcondition_inputs(name, tmp_path)
    report = next(sub for sub in scenario if sub.event_type == "InvestigationReport")

    def changed(round_no, **changes):
        attributes = tuple(sorted({**dict(report.attributes), **changes}.items()))
        return replace(report, round=round_no, attributes=attributes)

    refused = [  # submissions admission refuses, each with its reason
        (changed(report.round + 4, verdict="dismissed"), "KeyConflict"),
        (changed(0, report="inv-x", patient="nobody"), "UnboundInParameter"),
    ]
    rules, org = ruleset_from_spec(hospital_spec), Organization.make(hospital_spec.context, roles)
    submissions = scenario + [sub for sub, _ in refused]
    result = run_network(submissions, config, rules=rules, org=org)
    assert result.converged
    context = dict(target=config.target, roster=config.roster, rules=rules, roles_of=org.roles_of)
    for _, chain in result.chains:
        assert verify_chain(chain, **context) is None
    active = [e for e in result.active_chain.events()]
    assert {e.event_id for e in active} == {f"evt-{i:05d}" for i in range(len(scenario))}
    index = LedgerIndex(rules, active)
    signed = network.events_from_scenario(submissions, config.roster)[len(scenario):]
    for (_, event), (_, reason) in zip(signed, refused):
        assert [v.code for v in check_integrity(event, index)] == [reason]


def hospital_run(hospital_spec, seed, patients=8):
    """A hospital scenario, its demo network config at a gossip seed, rules and org:
    odd patients take the violation path, even ones the compliant path."""
    submissions = []
    for p in range(patients):
        patient = f"patient-{p}"
        steps = [("Admit", {"patient": patient, "nurse": "bob"}, "hospital")]
        if p % 2:
            steps += [
                ("Share", {"patient": patient, "sharer": "bob"}, "bob"),
                ("Complaint", {"patient": patient}, "charlie"),
                ("InvestigationReport",
                 {"report": f"inv-{p}", "patient": patient, "nurse": "bob", "verdict": "excused"},
                 "hospital"),
            ]
        else:
            steps += [
                ("Consent", {"patient": patient}, "charlie"),
                ("Share", {"patient": patient, "sharer": "bob"}, "bob"),
                ("Discharge", {"patient": patient}, "hospital"),
            ]
        for offset, (event_type, attributes, emitter) in enumerate(steps):
            round_no = p // 2 + 2 * offset
            submissions.append(Submission.make(round_no, event_type, attributes, emitter, len(submissions)))
    config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    org = Organization.make(hospital_spec.context, roles)
    return submissions, replace(config, gossip_seed=seed), ruleset_from_spec(hospital_spec), org


def record_verifications(monkeypatch, submissions, config, rules=None, org=None):
    """Run the network, recording each chain it verified with the verdict it got."""
    calls = []

    def recording(chain, **context):
        verdict = ledger.verify_chain(chain, **context)
        calls.append((chain, verdict, context))
        return verdict

    monkeypatch.setattr(network, "verify_chain", recording)
    result = run_network(submissions, config, rules=rules, org=org)
    monkeypatch.undo()
    return result, calls


def _setup(name, hospital_spec):
    kind, seed = name.split("-")
    if kind == "hospital":
        return hospital_run(hospital_spec, int(seed))
    return make_submissions(), make_config(seed=int(seed)), None, None


@pytest.mark.parametrize("name", ["hospital-7", "hospital-3", "readings-42", "readings-5"])
def test_suffix_verification_agrees_with_genesis_on_every_delivered_chain(
    monkeypatch, hospital_spec, name
):
    result, calls = record_verifications(monkeypatch, *_setup(name, hospital_spec))
    assert result.converged
    active = result.active_chain.blocks
    forks = [c for c, _, _ in calls if c.blocks != active[: len(c.blocks)]]
    assert forks, "the run should verify chains off the final chain"
    for chain, verdict, context in calls:
        oracle = {key: value for key, value in context.items() if key != "memo"}
        assert verify_chain(chain, **oracle) == verdict


def _forged_block(chain, events, target):
    header = mine_block(events, chain.tip.header, target, miner="peer-1")
    return Block(header=header, events=events)


def count_validations(monkeypatch) -> Counter:
    """Counts, by header, the blocks ledger.validate_block checks from now on."""
    validated = Counter()
    real_validate = ledger.validate_block

    def counting(prefix, block, *args, **kwargs):
        validated[block.header] += 1
        return real_validate(prefix, block, *args, **kwargs)

    monkeypatch.setattr(ledger, "validate_block", counting)
    return validated


@pytest.fixture
def verified_hospital_run(monkeypatch, hospital_spec):
    """The final chain of a hospital run, the run's memo and its verify context."""
    result, calls = record_verifications(monkeypatch, *hospital_run(hospital_spec, 7))
    context = dict(calls[0][2])
    memo = context.pop("memo")
    chain = result.active_chain
    assert memo[chain.tip_digest()][0] == chain.blocks
    return chain, memo, context


def _tampered_events(chain, roster):
    """A forged event for a block on top of a sound chain, one per kind of
    tampering, with the rejection verification must give."""
    events = [e for e in chain.events()]
    report = next(e for e in events if e.event_type == "InvestigationReport")
    admit = next(e for e in events if e.event_type == "Admit")

    def resigned(event, **changes):
        attributes = tuple(sorted({**dict(event.attributes), **changes}.items()))
        forged = replace(event, event_id="forged", attributes=attributes)
        return forged.with_signature(roster[event.emitter])

    return {
        "re-attributed": (replace(admit, event_id="forged", emitter="bob"), "BadSignature: forged"),
        "replayed-id": (admit, f"DuplicateEventId: {admit.event_id}"),
        "re-signed-key-conflict": (resigned(report, verdict="negligent"), "IntegrityViolation: KeyConflict"),
        "re-signed-unbound-in": (
            resigned(report, report="inv-x", patient="nobody"),
            "IntegrityViolation: UnboundInParameter(patient='nobody')",
        ),
    }


@pytest.mark.parametrize(
    "kind", ["re-attributed", "replayed-id", "re-signed-key-conflict", "re-signed-unbound-in"]
)
def test_tampered_suffix_is_rejected_as_from_genesis(monkeypatch, verified_hospital_run, kind):
    chain, memo, context = verified_hospital_run
    event, rejection = _tampered_events(chain, context["roster"])[kind]
    forged = chain.extend(_forged_block(chain, (event,), context["target"]))
    validated = count_validations(monkeypatch)
    verdict = verify_chain(forged, memo=memo, **context)
    assert list(validated) == [forged.tip.header]  # only the suffix was checked
    assert verdict == verify_chain(forged, **context)
    assert verdict.index == forged.height and str(verdict.rejection).startswith(rejection)


def test_memoized_blocks_after_an_altered_block_are_rejected_at_it(verified_hospital_run):
    chain, memo, context = verified_hospital_run
    at = next(i for i, b in enumerate(chain.blocks) if b.events and i < chain.height)
    block = chain.blocks[at]
    forged_event = replace(block.events[0], emitter="alice")  # not re-signed
    prefix = ledger.Chain(blocks=chain.blocks[:at])
    altered = _forged_block(prefix, (forged_event,) + block.events[1:], context["target"])
    spliced = ledger.Chain(blocks=chain.blocks[:at] + (altered,) + chain.blocks[at + 1:])
    assert memo[spliced.tip_digest()][0] != spliced.blocks
    verdict = verify_chain(spliced, memo=memo, **context)
    assert verdict == verify_chain(spliced, **context)
    assert verdict.index == at and verdict.rejection.reason == "BadSignature"


def test_each_block_is_validated_at_most_once_per_run(monkeypatch, hospital_spec):
    submissions, config, rules, org = hospital_run(hospital_spec, 7)
    validated = count_validations(monkeypatch)
    result = run_network(submissions, config, rules=rules, org=org)
    assert result.converged and len(validated) >= result.active_chain.height
    assert max(validated.values()) == 1
