"""apply_block against the batch oracle: replay equivalence and stability."""

import pytest

from compacts import incremental
from compacts.evaluator import _Run, evaluate
from compacts.governance import Organization
from compacts.incremental import NonContiguousBlock, apply_block, fold_chain, initial_state
from compacts.lang import parse_compact
from compacts.ledger import Chain, Position
from compacts.matching import bindings_sort_key

from conftest import DEMOS, bench_generators, build_chain, hospital_events
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


@pytest.mark.parametrize("seed", range(3))
def test_incremental_equals_batch_on_long_random_cases(seed):
    spec, org, chain, _ = random_case(seed, max_events=1100, min_events=1000, values=10)
    assert sum(len(block.events) for block in chain.blocks) >= 1000
    assert fold(spec, org, chain) == evaluate(chain, spec, org)


def test_the_fold_entry_point_equals_batch(hospital_spec, hospital_org):
    violation, _ = hospital_events()
    chain = build_chain(violation)
    assert fold_chain(chain, hospital_spec, hospital_org) == evaluate(chain, hospital_spec, hospital_org)
    genesis_only = Chain(blocks=chain.blocks[:1])
    assert fold_chain(genesis_only, hospital_spec, hospital_org) == evaluate(
        genesis_only, hospital_spec, hospital_org
    )


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
    # a state produced by batch evaluation carries its batch run, which has no
    # match caches; apply_block must build them and still agree with full
    # batch evaluation
    violation, _ = hospital_events()
    chain = build_chain(violation)
    prefix_state = evaluate(
        type(chain)(blocks=chain.blocks[:3]), hospital_spec, hospital_org
    )
    resumed = prefix_state
    for block in chain.blocks[3:]:
        resumed = apply_block(resumed, block)
    assert resumed == evaluate(chain, hospital_spec, hospital_org)


@pytest.mark.parametrize("seed", range(10))
def test_a_superseded_state_can_be_applied_again(seed):
    # apply_block hands its caches to the state it returns; applying the
    # same block to the older state again must rebuild them, not reuse them
    spec, org, chain, _ = random_case(seed, min_events=20)
    k = len(chain.blocks) // 2
    at_k = fold(spec, org, Chain(blocks=chain.blocks[: k + 1]))
    first = apply_block(at_k, chain.blocks[k + 1])
    again = apply_block(at_k, chain.blocks[k + 1])
    expected = evaluate(Chain(blocks=chain.blocks[: k + 2]), spec, org)
    assert first == expected
    assert again == expected
    for block in chain.blocks[k + 2:]:
        first = apply_block(first, block)
        again = apply_block(again, block)
    assert first == evaluate(chain, spec, org)
    assert again == first


def test_a_fold_builds_one_run(monkeypatch, hospital_spec, hospital_org):
    # apply_block hands its run on in the state it returns; each block after
    # the first continues that run instead of building a new one
    built = []
    real_init = incremental._IncrementalRun.__init__

    def counting(self, state):
        built.append(state.frontier)
        real_init(self, state)

    monkeypatch.setattr(incremental._IncrementalRun, "__init__", counting)
    violation, _ = hospital_events()
    chain = build_chain(violation + [[]])
    assert len(chain.blocks) > 3
    state = fold(hospital_spec, hospital_org, chain)
    assert built == [Position(0, -1)]
    assert state == evaluate(chain, hospital_spec, hospital_org)


@pytest.mark.parametrize("seed", range(10))
def test_a_block_that_fails_part_way_leaves_its_input_usable(monkeypatch, seed):
    # the run is in use from apply_block to freeze: a run an exception left
    # part-way through a block must not be continued from the state it started at
    spec, org, chain, _ = random_case(seed, min_events=20)
    k = next(
        h for h in range(len(chain.blocks) // 2, len(chain.blocks)) if len(chain.blocks[h].events) >= 2
    )
    before = fold(spec, org, Chain(blocks=chain.blocks[:k]))
    instances, facts = dict(before.instances), before.facts
    calls = []
    real_counts_as = incremental.counts_as_facts_for_event

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("second event")
        return real_counts_as(*args)

    monkeypatch.setattr(incremental, "counts_as_facts_for_event", failing)
    with pytest.raises(RuntimeError):
        apply_block(before, chain.blocks[k])
    monkeypatch.undo()
    assert before.instances == instances and before.facts == facts
    state = before
    for block in chain.blocks[k:]:
        state = apply_block(state, block)
    assert state == evaluate(chain, spec, org)


def test_per_block_lifecycle_work_does_not_grow_with_height(monkeypatch):
    # work = instances _transitions steps + create matches _spawn reads; a
    # lifecycle that rescans would grow with the number of events so far
    spec = parse_compact((DEMOS / "datatrust.cpt").read_text())
    blocks, config = bench_generators().datatrust_inputs(4, 200)
    org = Organization.make(spec.context, config["roles"])
    work = [0]

    def counted(method, size):
        def wrapper(self, *args):
            result = method(self, *args)
            work[0] += size(result)
            return result

        return wrapper

    monkeypatch.setattr(
        incremental._IncrementalRun, "create_matches",
        counted(incremental._IncrementalRun.create_matches, len),
    )
    for step in ("_step_commitment", "_step_prohibition"):
        monkeypatch.setattr(incremental._IncrementalRun, step, counted(getattr(_Run, step), lambda _: 1))
    per_block = []
    state = initial_state(spec, org)
    for block in blocks:
        before = work[0]
        state = apply_block(state, block)
        per_block.append(work[0] - before)
    assert sum(len(block.events) for block in blocks) >= 1000
    quarter = len(per_block) // 4
    first, last = per_block[:quarter], per_block[-quarter:]
    assert sum(last) / len(last) <= 1.5 * sum(first) / len(first), per_block


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
        (inst.norm_id, inst.key_bindings): inst.state for inst in state.instances.values() if inst.is_terminal()
    }
    extended = extend_randomly(chain, seed=seed + 10_000, blocks=4, roster=roster)
    later = evaluate(extended, spec, org)
    for key, frozen_state in terminal.items():
        assert later.instances[key].state is frozen_state
