"""Hostile peers in the network run: what honest peers must still hold.

One peer of 3 or of 5 is hostile (tests/hostile_peers.py): it censors Share
events, withholds its chain until its k-th turn, or equivocates with two
sibling blocks a turn. The run is a generated hospital scenario at the demo
target or at EASY_TARGET. Whatever the hostile peer does, each property must
hold:

- every honest peer's final chain passes from-genesis verify_chain under
  the run's target, roster, rules and roles;
- honest peers end on one tip;
- every event injected at an honest peer is on that chain, or admission
  refuses it there, also after a reorg to a withheld chain;
- a run that reports converged holds every event on that chain, or
  admission refuses it there, wherever it was injected.

A peer that forwards forged copies of events tests the signature check on
delivery. The tier-1 sweep is small. A long sweep sets the number of cases
per kind of hostile peer:

    COMPACTS_FUZZ_EXAMPLES=1000 PYTHONPATH=src python -m pytest -q tests/test_hostile_peers.py
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from compacts import network
from compacts.fileformats import read_network_config
from compacts.governance import Organization, ruleset_from_spec
from compacts.ledger import Event, verify_chain
from compacts.validator import check_integrity, validate_event_schema

from conftest import DEMOS, EASY_TARGET
from hostile_peers import Censor, Equivocate, Tamper, Withhold, held, hostile_run, injected_at

EXAMPLES = int(os.environ.get("COMPACTS_FUZZ_EXAMPLES", 25))
KINDS = {"censor": Censor, "withhold": Withhold, "equivocate": Equivocate}
PATHS = {  # a patient's events in order: the violation path and the compliant path
    True: [("Admit", "hospital"), ("Share", "bob"), ("Complaint", "charlie"),
           ("InvestigationReport", "hospital")],
    False: [("Admit", "hospital"), ("Consent", "charlie"), ("Share", "bob"), ("Discharge", "hospital")],
}


def scenario_of(patients: list[tuple[bool, int]]) -> list[tuple[int, Event]]:
    """Per patient (violation path?, first round), its four events, each two
    rounds after the last; nurse bob, and charlie's role as the patient."""
    scenario = []
    for p, (violation, start) in enumerate(patients):
        patient = f"patient-{p}"
        attributes = {
            "Admit": {"patient": patient, "nurse": "bob"},
            "Share": {"patient": patient, "sharer": "bob"},
            "InvestigationReport": {"report": f"inv-{p}", "patient": patient, "nurse": "bob",
                                    "verdict": "upheld"},
        }
        for step, (event_type, emitter) in enumerate(PATHS[violation]):
            number = len(scenario)
            body = attributes.get(event_type, {"patient": patient})
            scenario.append((start + 2 * step, Event.make(f"evt-{number:05d}", event_type, body, emitter, number)))
    return scenario


def network_of(hospital_spec, peers: int, easy: bool, seed: int):
    """The demo network config on peers peer-0.., at a gossip seed, with
    rounds to spare; its rules and organization."""
    config, roles = read_network_config(str(DEMOS / "hospital_net.json"))
    config = replace(
        config, peers=tuple(f"peer-{i}" for i in range(peers)), gossip_seed=seed, max_rounds=60,
        target=EASY_TARGET if easy else config.target,
    )
    return config, ruleset_from_spec(hospital_spec), Organization.make(hospital_spec.context, roles)


def reorgs_onto(log, miner: str) -> list:
    """The log entries where an honest peer dropped blocks for a chain whose
    tip miner mined."""
    return [r for r in log if r.pid != miner and r.reorg and r.message.tip.header.miner == miner]


PATIENTS = st.lists(st.tuples(st.booleans(), st.integers(0, 3)), min_size=1, max_size=5)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(patients=PATIENTS, peers=st.sampled_from([3, 5]), easy=st.booleans(),
       seed=st.integers(0, 2**32 - 1), position=st.integers(0, 4), k=st.integers(1, 4))
def test_honest_peers_hold_against_one_hostile_peer(hospital_spec, kind, patients, peers, easy, seed,
                                                    position, k):
    config, rules, org = network_of(hospital_spec, peers, easy, seed)
    bad = config.peers[position % peers]
    hostile = type(kind, (KINDS[kind],), {"k": k})
    scenario = scenario_of(patients)
    result, _, log = hostile_run(scenario, config, rules, org, {bad: hostile})

    context = dict(target=config.target, roster=config.roster, rules=rules, roles_of=org.roles_of)
    honest = [chain for pid, chain in result.chains if pid != bad]
    for chain in honest:
        assert verify_chain(chain, **context) is None
    assert len({chain.tip_digest() for chain in honest}) == 1, "honest peers end on different tips"
    chain = honest[0]
    on_chain = {e.event_id for e in chain.events()}
    index = chain.admission_index(rules)
    at = injected_at(log)
    for _, submitted in scenario:
        if submitted.event_id in on_chain:
            continue
        signed = submitted.with_signature(config.roster[submitted.emitter])
        refused = validate_event_schema(signed, rules, org.roles_of) or check_integrity(signed, index)
        if at.get(submitted.event_id, bad) != bad:
            assert refused, f"{submitted.event_id} injected at an honest peer is missing"
        assert refused or not result.converged, f"{submitted.event_id} is missing from a converged run"
    event(f"an honest peer reorganised onto the {kind} peer's chain: {bool(reorgs_onto(log, bad))}")


def test_a_censored_event_that_no_honest_peer_holds_is_not_converged(hospital_spec):
    # every event is injected at the censor, so the Share reaches no honest
    # peer: all agree on a chain without it, which admission there would extend
    config, rules, org = network_of(hospital_spec, 3, False, 0)
    result, _, log = hostile_run(scenario_of([(True, 0)]), config, rules, org, {"peer-1": Censor})
    assert set(injected_at(log).values()) == {"peer-1"}
    assert len({chain.tip_digest() for _, chain in result.chains}) == 1
    assert [e.event_type for e in result.active_chain.events()] == ["Admit", "Complaint", "InvestigationReport"]
    assert not result.converged


@pytest.mark.parametrize("easy, seed, k", [(True, 2, 3), (False, 10, 4)])
def test_a_withheld_chain_that_wins_is_adopted_and_keeps_every_event(hospital_spec, easy, seed, k):
    # the chain the withholder releases is longer than the honest peers':
    # each drops two blocks for it, then mines again what it left out
    config, rules, org = network_of(hospital_spec, 3, easy, seed)
    scenario = scenario_of([(True, 0), (False, 1), (True, 3)])
    hostile = type("Withhold", (Withhold,), {"k": k})
    result, peers, log = hostile_run(scenario, config, rules, org, {"peer-0": hostile})
    released = peers["peer-0"].released
    assert [(r.pid, r.reorg) for r in log if r.message is released and r.reorg] == [("peer-1", 2), ("peer-2", 2)]
    assert result.converged
    assert {e.event_id for e in result.active_chain.events()} == {e.event_id for _, e in scenario}


@pytest.mark.parametrize("seed", range(6))
def test_no_honest_peer_keeps_forwards_or_mines_a_forged_event(hospital_spec, seed):
    config, rules, org = network_of(hospital_spec, 3, seed % 2 == 0, seed)
    scenario = scenario_of([(True, 0), (False, 0), (True, 1), (False, 2)])
    rejected = []
    real_verify = network.verify_event_signature

    def recording(message, secret):
        verdict = real_verify(message, secret)
        if not verdict:
            rejected.append(message)
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "verify_event_signature", recording)
        result, peers, log = hostile_run(scenario, config, rules, org, {"peer-1": Tamper})
    genuine = {e.with_signature(config.roster[e.emitter]) for _, e in scenario}
    assert rejected and not set(rejected) & genuine, "no forged event reached the signature check"
    for pid, peer in peers.items():
        if pid == "peer-1":
            continue
        assert set(peer.seen.values()) <= genuine
        assert set(peer.chain.events()) <= genuine
        forwarded = [e for r in log if r.pid == pid and r.forwarded for e in held(r.message)]
        assert set(forwarded) <= genuine
    assert result.converged
    assert set(result.active_chain.events()) == genuine
