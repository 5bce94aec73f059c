"""Deterministic gossip simulation and longest-chain convergence."""

import json
import sys
from collections import Counter
from dataclasses import replace

import pytest

from compacts import ledger, network, validator
from compacts.fileformats import read_network_config, read_scenario
from compacts.governance import Organization, UnrosteredEmitter, ruleset_from_spec
from compacts.ledger import Block, Event, mine_block, verify_chain
from compacts.network import NetworkConfig, run_network
from compacts.validator import LedgerIndex, check_integrity

from conftest import DEMOS, bench_generators, count_index_builds, load_fixture
from hostile_peers import Censor, Equivocate, Tamper, Withhold, forged, hostile_run

ROSTER = tuple((f"client-{i}", f"key-{i}") for i in range(4))


def make_config(peers=5, seed=42, target=1 << 248, max_rounds=30):
    return NetworkConfig(
        principals=ROSTER,
        peers=tuple(f"peer-{i}" for i in range(peers)),
        target=target,
        gossip_seed=seed,
        max_rounds=max_rounds,
    )


def make_scenario(count=20):
    """(round, unsigned event) pairs: four sensor readings a round."""
    return [
        (i // 4, Event.make(f"evt-{i:05d}", "Reading", {"sensor": f"s{i % 3}", "value": i},
                            f"client-{i % 4}", i))
        for i in range(count)
    ]


def test_golden_run_converges_and_reproduces_digest():
    gold = load_fixture("golden_network.json")
    config = make_config(seed=gold["seed"], target=int(gold["target_hex"], 16))
    result = run_network(make_scenario(gold["events"]), config)
    assert result.converged
    assert result.rounds_used == gold["rounds_used"]
    chain = result.active_chain
    assert len(chain.blocks) == gold["blocks"]
    assert chain.tip_digest().hex() == gold["tip_digest_hex"]


def test_all_peers_end_on_identical_chains():
    result = run_network(make_scenario(), make_config())
    digests = {chain.tip_digest() for _, chain in result.chains}
    assert len(digests) == 1
    for _, chain in result.chains:
        assert verify_chain(chain, target=1 << 248, roster=dict(ROSTER)) is None


def test_single_peer_converges_trivially_with_all_events():
    result = run_network(make_scenario(12), make_config(peers=1))
    assert result.converged
    chain = result.active_chain
    ids = {e.event_id for e in chain.events()}
    assert ids == {f"evt-{i:05d}" for i in range(12)}


def test_run_is_bit_identical_across_invocations():
    first = run_network(make_scenario(), make_config())
    second = run_network(make_scenario(), make_config())
    assert first == second


def test_different_seeds_still_converge():
    for seed in range(20):
        result = run_network(make_scenario(), make_config(seed=seed))
        assert result.converged, f"seed {seed} failed to converge"


def test_unrostered_emitter_is_rejected_up_front():
    bad = [(0, Event.make("evt-00000", "Reading", {"sensor": "s1", "value": 0}, "mallory", 0))]
    with pytest.raises(UnrosteredEmitter):
        run_network(bad, make_config())


def test_a_repeated_event_id_is_refused_up_front():
    # gossip keeps the first event of an id it sees, so a repeat would be dropped in silence
    scenario = make_scenario(8)
    round_no, event = scenario[5]
    other = Event.make(event.event_id, "Reading", {"sensor": "s9", "value": 99}, event.emitter, 9)
    with pytest.raises(ValueError):
        run_network(scenario + [(round_no, other)], make_config())
    with pytest.raises(ValueError):
        run_network(scenario + [scenario[0]], make_config())


def test_all_submitted_events_reach_the_active_chain():
    result = run_network(make_scenario(), make_config())
    chain = result.active_chain
    ids = {e.event_id for e in chain.events()}
    assert ids == {f"evt-{i:05d}" for i in range(20)}


@pytest.mark.parametrize("share_round, converged", [(2, True), (40, False)])
def test_a_submission_past_max_rounds_means_no_convergence(hospital_spec, share_round, converged):
    # the demo config's max_rounds is 40: a Share at round 40 is never
    # injected, so the run must not claim to have converged
    scenario = [
        (share_round if event.event_type == "Share" else round_no, event)
        for round_no, event in read_scenario(str(DEMOS / "hospital_violation.jsonl"))
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
    # one copy, in admission, which verify_chain then takes as the block's.
    # The chain is the one holder of its index, so nothing builds one from a
    # chain's events, and the index each peer's chain carries equals such a
    # rebuild. A refused event is checked again only on a turn whose tip or
    # pending events differ from the peer's last turn that admitted nothing:
    # 20 checks of the report over the run, where each admitted event costs
    # one (ROADMAP item 5, "Refusals remembered").
    config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    org = Organization.make(hospital_spec.context, roles)
    rules = ruleset_from_spec(hospital_spec)
    scenario = read_scenario(str(DEMOS / "hospital_violation.jsonl"))
    unbound = (0, Event.make(
        "evt-00004", "InvestigationReport",
        {"report": "inv-002", "patient": "nobody", "nurse": "bob", "verdict": "upheld"}, "hospital",
    ))
    copies, checked, built = [], [], count_index_builds(monkeypatch)
    real_copy, real_check = LedgerIndex.copy, network.check_integrity
    monkeypatch.setattr(LedgerIndex, "copy", lambda index: copies.append(index) or real_copy(index))
    monkeypatch.setattr(
        network, "check_integrity", lambda event, index: checked.append(event.event_id) or real_check(event, index)
    )
    for submissions, rechecks in ((scenario, 0), (scenario + [unbound], 20)):
        copies.clear()
        checked.clear()
        result = run_network(submissions, config, rules=rules, org=org)
        events = [e for e in result.active_chain.events()]
        assert result.converged and len(events) == len(scenario)
        assert len(copies) == result.active_chain.height == 4
        assert Counter(checked) == Counter([e.event_id for e in events] + ["evt-00004"] * rechecks)
        carried = [chain.admission_index(rules) for _, chain in result.chains]
        assert built == []
        for (_, chain), index in zip(result.chains, carried):
            rebuilt = LedgerIndex(rules, chain.events())
            assert (index.event_ids, index.bound, index.outs) == (
                rebuilt.event_ids, rebuilt.bound, rebuilt.outs
            )
        built.clear()


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
        (0, Event.make("evt-00000", "InvestigationReport", attributes, "hospital", 0)),
        (admit_round,
         Event.make("evt-00001", "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital", 1)),
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
    report_round, report = next(pair for pair in scenario if pair[1].event_type == "InvestigationReport")

    def changed(round_no, number, **changes):
        attributes = tuple(sorted({**dict(report.attributes), **changes}.items()))
        return round_no, replace(report, event_id=f"evt-{number:05d}", attributes=attributes)

    refused = [  # events admission refuses, each with its reason
        (changed(report_round + 4, len(scenario), verdict="dismissed"), "KeyConflict"),
        (changed(0, len(scenario) + 1, report="inv-x", patient="nobody"), "UnboundInParameter"),
    ]
    rules, org = ruleset_from_spec(hospital_spec), Organization.make(hospital_spec.context, roles)
    submissions = scenario + [pair for pair, _ in refused]
    result = run_network(submissions, config, rules=rules, org=org)
    assert result.converged
    context = dict(target=config.target, roster=config.roster, rules=rules, roles_of=org.roles_of)
    for _, chain in result.chains:
        assert verify_chain(chain, **context) is None
    active = [e for e in result.active_chain.events()]
    assert {e.event_id for e in active} == {f"evt-{i:05d}" for i in range(len(scenario))}
    index = LedgerIndex(rules, active)
    for (_, event), reason in refused:
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
            number = len(submissions)
            event = Event.make(f"evt-{number:05d}", event_type, attributes, emitter, number)
            submissions.append((round_no, event))
    config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    org = Organization.make(hospital_spec.context, roles)
    return submissions, replace(config, gossip_seed=seed), ruleset_from_spec(hospital_spec), org


def record_verifications(monkeypatch, submissions, config, rules=None, org=None, hostile=None):
    """Run the network, recording each chain it verified with the verdict it
    got; with hostile, through hostile_run with those peers in."""
    calls = []

    def recording(chain, **context):
        verdict = ledger.verify_chain(chain, **context)
        calls.append((chain, verdict, context))
        return verdict

    monkeypatch.setattr(network, "verify_chain", recording)
    if hostile is None:
        result = run_network(submissions, config, rules=rules, org=org)
    else:
        result = hostile_run(submissions, config, rules, org, hostile)[0]
    monkeypatch.undo()
    return result, calls


def _setup(name, hospital_spec):
    kind, seed = name.split("-")
    if kind == "hospital":
        return hospital_run(hospital_spec, int(seed))
    return make_scenario(), make_config(seed=int(seed)), None, None


HOSTILE = {"censor": Censor, "equivocate": Equivocate, "tamper": Tamper, "withhold": Withhold}


@pytest.mark.parametrize("name", ["hospital-7", "hospital-3", "readings-42", "readings-5"] + sorted(HOSTILE))
def test_suffix_verification_agrees_with_genesis_on_every_delivered_chain(
    monkeypatch, hospital_spec, tmp_path, name
):
    # honest runs verify only chains that end at a memoized tip; in a run
    # with a hostile peer, as test_every_memo_entry_is_a_sound_chain_holding_its_index
    # runs one, Equivocate's siblings are validated past a memo hit
    if name in HOSTILE:
        scenario, config, roles = _postcondition_inputs("bench-3-10-five-peers", tmp_path)
        rules, org = ruleset_from_spec(hospital_spec), Organization.make(hospital_spec.context, roles)
        hostile = {config.peers[2]: HOSTILE[name]}
        _, calls = record_verifications(monkeypatch, scenario, config, rules, org, hostile)
        assert calls
    else:
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
    assert memo[chain.tip_digest()].blocks == chain.blocks
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


def test_sibling_blocks_on_one_memo_parent_each_get_its_index(monkeypatch, verified_hospital_run):
    # two competing blocks with the same new event id: if validating the
    # first moved or changed the memo parent's index, the second would be
    # refused as a duplicate or would rebuild the index
    chain, memo, context = verified_hospital_run
    siblings = []
    for patient in ("zoe", "yan"):
        event = ledger.Event.make("sibling", "Admit", {"patient": patient, "nurse": "bob"}, "hospital")
        event = event.with_signature(context["roster"]["hospital"])
        siblings.append(chain.extend(_forged_block(chain, (event,), context["target"])))
    from_genesis = [verify_chain(sibling, **context) for sibling in siblings]
    validated, built = count_validations(monkeypatch), count_index_builds(monkeypatch)
    assert [verify_chain(sibling, memo=memo, **context) for sibling in siblings] == from_genesis
    assert from_genesis == [None, None]
    assert validated == Counter(sibling.tip.header for sibling in siblings)
    assert built == []


def test_a_multi_block_suffix_is_validated_on_one_copy_and_memoized_whole(monkeypatch, verified_hospital_run):
    # three blocks of fresh events past the memo's tip: the tip chain's index
    # is copied once, the whole suffix is validated on that copy, and only
    # the whole chain is stored, under its tip digest, holding its index. A
    # twin forged at its third block is rejected there and stores nothing.
    chain, memo, context = verified_hospital_run
    fresh = [
        Event.make(f"fresh-{n}", "Admit", {"patient": f"fresh-{n}", "nurse": "bob"}, "hospital")
        .with_signature(context["roster"]["hospital"])
        for n in range(3)
    ]
    extended = chain
    for event in fresh:
        extended = extended.extend(_forged_block(extended, (event,), context["target"]))
    parent = ledger.Chain(blocks=extended.blocks[:-1])
    twin = parent.extend(_forged_block(parent, (forged(fresh[-1]),), context["target"]))
    assert verify_chain(extended, **context) is None
    rejected = verify_chain(twin, **context)
    assert rejected.index == twin.height and rejected.rejection.reason == "BadSignature"
    before = dict(memo)
    copies = Counter()
    real_copy = LedgerIndex.copy
    monkeypatch.setattr(LedgerIndex, "copy", lambda index: copies.update(["copy"]) or real_copy(index))
    validated = count_validations(monkeypatch)
    assert verify_chain(twin, memo=memo, **context) == rejected
    assert sum(validated.values()) == 3 and copies == Counter(copy=1)
    assert memo.keys() == before.keys() and all(memo[key] is known for key, known in before.items())
    validated.clear()
    copies.clear()
    assert verify_chain(extended, memo=memo, **context) is None
    assert validated == Counter(block.header for block in extended.blocks[-3:]) and copies == Counter(copy=1)
    assert memo.keys() - before.keys() == {extended.tip_digest()} and len(memo) == len(before) + 1
    stored = memo[extended.tip_digest()]
    [(index, covered)] = stored._admission
    assert stored.blocks == extended.blocks and covered is extended.tip and index.rules is context["rules"]
    rebuilt = LedgerIndex(context["rules"], extended.events())
    assert (index.event_ids, index.bound, index.outs) == (rebuilt.event_ids, rebuilt.bound, rebuilt.outs)


def test_memoized_blocks_after_an_altered_block_are_rejected_at_it(verified_hospital_run):
    chain, memo, context = verified_hospital_run
    at = next(i for i, b in enumerate(chain.blocks) if b.events and i < chain.height)
    block = chain.blocks[at]
    forged_event = replace(block.events[0], emitter="alice")  # not re-signed
    prefix = ledger.Chain(blocks=chain.blocks[:at])
    altered = _forged_block(prefix, (forged_event,) + block.events[1:], context["target"])
    spliced = ledger.Chain(blocks=chain.blocks[:at] + (altered,) + chain.blocks[at + 1:])
    assert memo[spliced.tip_digest()].blocks != spliced.blocks
    verdict = verify_chain(spliced, memo=memo, **context)
    assert verdict == verify_chain(spliced, **context)
    assert verdict.index == at and verdict.rejection.reason == "BadSignature"


def test_each_block_is_validated_at_most_once_per_run(monkeypatch, hospital_spec):
    # a peer does not validate a block it mined, and every chain an honest
    # peer receives ends at a block in the memo, so no block is validated
    submissions, config, rules, org = hospital_run(hospital_spec, 7)
    validated = count_validations(monkeypatch)
    result = run_network(submissions, config, rules=rules, org=org)
    assert result.converged and result.active_chain.height > 0
    assert validated == Counter()


def test_a_mined_block_is_admitted_once_by_its_miner(monkeypatch, hospital_spec, tmp_path):
    # a miner's chain enters the memo as built, with the index its admission
    # filled, and every other peer finds its tip there: validate_block is
    # never called, so ledger makes no schema or integrity check
    scenario, config, roles = _postcondition_inputs("bench-1-40", tmp_path)
    rules, org = ruleset_from_spec(hospital_spec), Organization.make(hospital_spec.context, roles)
    calls = Counter()

    def counted(real, name):
        return lambda *args, **kwargs: calls.update([name]) or real(*args, **kwargs)

    for module, name in ((validator, "validate_event_schema"), (validator, "check_integrity"),
                         (ledger, "validate_block"), (network, "mine_block")):
        monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    result = run_network(scenario, config, rules=rules, org=org)
    assert result.converged and result.active_chain.tip_digest().hex().startswith("02585d813c1a")
    assert calls == Counter(validate_block=0, mine_block=80)  # and no schema or integrity call


def test_a_mined_block_is_hashed_and_signature_checked_once(monkeypatch, hospital_spec, tmp_path):
    # no peer validates a block it mined, and every other peer finds it in
    # the memo: the miner's receive checked each signature and mine_block
    # computed the digest the header carries. Counted by caller.
    scenario, config, roles = _postcondition_inputs("bench-1-40", tmp_path)
    rules, org = ruleset_from_spec(hospital_spec), Organization.make(hospital_spec.context, roles)
    calls = Counter()

    def by_caller(real):
        def counted(*args):
            calls[sys._getframe(1).f_code.co_name, real.__name__] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(ledger, "events_digest", by_caller(ledger.events_digest))
    monkeypatch.setattr(ledger, "verify_event_signature", by_caller(ledger.verify_event_signature))
    monkeypatch.setattr(network, "verify_event_signature", by_caller(network.verify_event_signature))
    result = run_network(scenario, config, rules=rules, org=org)
    assert result.converged and result.active_chain.tip_digest().hex().startswith("02585d813c1a")
    assert calls == Counter({("receive", "verify_event_signature"): 401, ("mine_block", "events_digest"): 80})


def _variants(block, parent, target):
    """Blocks on the parent whose events are the block's reordered, with one
    dropped or with one forged (not re-signed), each mined afresh, the
    forged one also under the block's own header, and the block's header
    over an equal copy of its events tuple, which is checked in full."""
    events = block.events
    forged_events = (forged(events[0]),) + events[1:]

    def mined(variant):
        return Block(mine_block(variant, parent.tip.header, target, miner="peer-9"), variant)

    variants = {"dropped-first": mined(events[1:]), "forged": mined(forged_events),
                "forged-under-its-header": Block(block.header, forged_events),
                "an-equal-copy": Block(block.header, tuple(list(events)))}
    if len(events) > 1:
        variants.update({"reordered": mined(events[::-1]), "dropped-last": mined(events[:-1])})
    return variants


@pytest.mark.parametrize("rounds", ["as-submitted", "all-at-round-0"])
def test_a_block_unlike_its_miner_s_is_admitted_in_full(monkeypatch, hospital_spec, rounds):
    # a turn that mines puts one entry in the memo: the miner's chain, under
    # its tip's digest. A block on the same parent whose events differ must
    # miss it, and one under the miner's header whose events differ must
    # fail the memo walk's prefix test and then the events digest. Each
    # variant is checked on the run's memo just after that turn, and must
    # get from-genesis's verdict; an accepted one must carry the index a
    # rebuild gives, as must the miner's own chain, which an equal copy finds.
    submissions, config, rules, org = hospital_run(hospital_spec, 7)
    if rounds == "all-at-round-0":  # dependent events meet in one block
        submissions = [(0, event) for _, event in submissions]
    verdicts = Counter()

    class Checking(network._Peer):
        def turn(self) -> list:
            before = set(self.memo)
            sent = super().turn()
            added = [key for key in self.memo if key not in before]
            assert added == [chain.tip_digest() for chain in sent]
            context = dict(target=self.target, roster=self.roster, rules=self.rules, roles_of=self.roles_of)
            for key in added:
                chain = self.memo[key]
                parent = ledger.Chain(blocks=chain.blocks[:-1])
                for kind, block in _variants(chain.tip, parent, self.target).items():
                    variant = parent.extend(block)
                    verdict = verify_chain(variant, memo=self.memo, **context)
                    assert verdict == verify_chain(variant, **context), kind
                    verdicts[kind, verdict and verdict.rejection.reason] += 1
                    if verdict is None:
                        index = self.memo[variant.tip_digest()].admission_index(rules)
                        rebuilt = LedgerIndex(rules, variant.events())
                        assert (index.event_ids, index.bound, index.outs) == (
                            rebuilt.event_ids, rebuilt.bound, rebuilt.outs
                        )
            return sent

    monkeypatch.setattr(network, "_Peer", Checking)
    assert run_network(submissions, config, rules=rules, org=org).converged
    found = set(verdicts)
    assert {("forged", "BadSignature"), ("forged-under-its-header", "BadEventsDigest")} <= found
    assert ("dropped-last", None) in found and ("an-equal-copy", None) in found
    assert (("reordered", "IntegrityViolation") in found) is (rounds == "all-at-round-0")


MEMO_RUNS = [f"bench-{seed}-{patients}" for seed in range(1000, 1010) for patients in (10, 20, 40)]


@pytest.mark.parametrize("name", MEMO_RUNS + sorted(HOSTILE))
def test_every_memo_entry_is_a_sound_chain_holding_its_index(hospital_spec, tmp_path, name):
    # the memo holds chains peers verified and chains peers mined, the
    # latter as built: after a run, each is under its tip's header digest,
    # verifies from genesis and holds, for its tip, the index its events
    # give. The runs are 30 of golden_network_runs.json's, and one per
    # hostile peer on five peers at an easier target, where blocks compete.
    scenario, config, roles = _postcondition_inputs(name if name in MEMO_RUNS else "bench-3-10-five-peers", tmp_path)
    rules, org = ruleset_from_spec(hospital_spec), Organization.make(hospital_spec.context, roles)
    hostile = {config.peers[2]: HOSTILE[name]} if name in HOSTILE else {}
    _, peers, _ = hostile_run(scenario, config, rules, org, hostile)
    memo = peers[config.peers[0]].memo
    assert memo and all(peer.memo is memo for peer in peers.values())
    context = dict(target=config.target, roster=config.roster, rules=rules, roles_of=org.roles_of)
    for key, chain in memo.items():
        assert isinstance(key, bytes) and len(key) == ledger.DIGEST_SIZE and key == chain.tip_digest()
        assert verify_chain(chain, **context) is None
        [(index, covered)] = chain._admission
        assert covered is chain.tip and index.rules is rules
        rebuilt = LedgerIndex(rules, chain.events())
        assert (index.event_ids, index.bound, index.outs) == (rebuilt.event_ids, rebuilt.bound, rebuilt.outs)
