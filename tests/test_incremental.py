"""apply_block against the batch oracle: replay equivalence and stability."""

import pytest

from compacts.evaluator import evaluate
from compacts.incremental import NonContiguousBlock, apply_block, initial_state
from compacts.ledger import Position
from compacts.matching import bindings_sort_key

from conftest import build_chain, hospital_events
from scenario_gen import extend_randomly, random_case


def fold(spec, org, chain):
    state = initial_state(spec, org)
    for block in chain.blocks[1:]:
        state = apply_block(state, block)
    return state


def test_incremental_equals_batch_on_the_narrative(hospital_spec, hospital_org):
    violation, compliant = hospital_events()
    for groups in (violation, compliant):
        chain = build_chain(groups)
        assert fold(hospital_spec, hospital_org, chain) == evaluate(chain, hospital_spec, hospital_org)


@pytest.mark.parametrize("seed", range(25))
def test_incremental_equals_batch_on_random_cases(seed):
    spec, org, chain, _ = random_case(seed)
    assert fold(spec, org, chain) == evaluate(chain, spec, org)


@pytest.mark.parametrize("seed", range(25))
def test_facts_are_kept_in_report_order(seed):
    spec, org, chain, _ = random_case(seed)
    for state in (evaluate(chain, spec, org), fold(spec, org, chain)):
        ordered = sorted(state.facts, key=lambda f: (f.witness, f.name, bindings_sort_key(f.bindings)))
        assert list(state.facts) == ordered


def test_empty_block_advances_only_the_clock(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    chain = build_chain(violation + [[]])
    state = fold(hospital_spec, hospital_org, chain)
    assert state.frontier == Position(5, -1)
    assert state == evaluate(chain, hospital_spec, hospital_org)


def test_reapplying_the_frontier_block_is_refused(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    state = fold(hospital_spec, hospital_org, chain)
    with pytest.raises(NonContiguousBlock):
        apply_block(state, chain.blocks[-1])


def test_skipping_a_block_is_refused(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    state = initial_state(hospital_spec, hospital_org)
    with pytest.raises(NonContiguousBlock):
        apply_block(state, chain.blocks[2])


def test_apply_block_does_not_mutate_its_input(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    state = initial_state(hospital_spec, hospital_org)
    for block in chain.blocks[1:]:
        before_instances = dict(state.instances)
        before_facts = state.facts
        advanced = apply_block(state, block)
        assert state.instances == before_instances
        assert state.facts == before_facts
        state = advanced


def test_incremental_resumes_from_a_batch_state(hospital_spec, hospital_org):
    # a state produced by batch evaluation carries no caches; apply_block
    # must rebuild them and still agree with full batch evaluation
    violation, _ = hospital_events()
    chain = build_chain(violation)
    prefix_state = evaluate(
        type(chain)(blocks=chain.blocks[:3]), hospital_spec, hospital_org
    )
    resumed = prefix_state
    for block in chain.blocks[3:]:
        resumed = apply_block(resumed, block)
    assert resumed == evaluate(chain, hospital_spec, hospital_org)


@pytest.mark.parametrize("seed", range(20))
def test_commitment_detachment_invariant_over_random_corpus(seed):
    from compacts.evaluator import NormState
    from compacts.lang.ast import COMMITMENT

    spec, org, chain, _ = random_case(seed)
    state = evaluate(chain, spec, org)
    for inst in state.instances.values():
        if spec.norm(inst.norm_id).kind != COMMITMENT:
            assert inst.detached_at is None
            continue
        should_have = inst.state in (NormState.DETACHED, NormState.SATISFIED, NormState.VIOLATED)
        assert (inst.detached_at is not None) == should_have, inst


@pytest.mark.parametrize("seed", range(15))
def test_terminal_states_survive_chain_extension(seed):
    spec, org, chain, roster = random_case(seed)
    state = evaluate(chain, spec, org)
    terminal = {
        inst.key: inst.state for inst in state.instances.values() if inst.is_terminal()
    }
    extended = extend_randomly(chain, seed=seed + 10_000, blocks=4, roster=roster)
    later = evaluate(extended, spec, org)
    for key, frozen_state in terminal.items():
        assert later.instances[key].state is frozen_state
