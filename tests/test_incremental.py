"""apply_block against the batch oracle: replay equivalence and stability.

The fold-vs-batch random cases number 25 here; a long sweep sets
COMPACTS_FUZZ_EXAMPLES:

    COMPACTS_FUZZ_EXAMPLES=2000 PYTHONPATH=src python -m pytest -q tests/test_incremental.py -k equals_batch_on_random
"""

import copy
import json
import os
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compacts import fileformats, incremental, matching
from compacts.evaluator import NormState, _Run, evaluate
from compacts.governance import Organization, ruleset_from_spec
from compacts.incremental import NonContiguousBlock, apply_block, fold_chain, initial_state
from compacts.lang import ast, check_well_formedness, parse_compact
from compacts.ledger import GENESIS_BLOCK, Chain, Event, Position
from compacts.matching import (
    DerivedFact,
    Match,
    bindings_sort_key,
    fact_name,
    freeze_bindings,
    match_event_pattern,
    match_fact_pattern,
)
from compacts.network import run_network

from conftest import DEMOS, FIXTURES, bench_generators, build_chain, hospital_events, signed_event
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


@pytest.mark.parametrize("seed", range(int(os.environ.get("COMPACTS_FUZZ_EXAMPLES", 25))))
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
    # a state holds its facts in derivation order; facts_in_order is the report's
    spec, org, chain, _ = random_case(seed)
    for state in (evaluate(chain, spec, org), fold(spec, org, chain)):
        ordered = sorted(state.facts, key=lambda f: (f.witness, f.name, bindings_sort_key(f.bindings)))
        assert state.facts_in_order() == ordered


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
    # initial_state builds the run and apply_block hands it on in the state
    # it returns; each block continues that run instead of building a new one
    built = []
    real_init = incremental._IncrementalRun.__init__

    def counting(self, spec, org):
        built.append(spec)
        real_init(self, spec, org)

    monkeypatch.setattr(incremental._IncrementalRun, "__init__", counting)
    violation, _ = hospital_events()
    chain = build_chain(violation + [[]])
    assert len(chain.blocks) > 3
    state = fold(hospital_spec, hospital_org, chain)
    assert built == [hospital_spec]
    assert state == evaluate(chain, hospital_spec, hospital_org)


def test_a_refold_processes_the_empty_heights():
    # a state the run has moved past is re-folded through every height up to
    # its frontier: a lapse due at an empty block closes there, not at the
    # boundary of the block applied next
    spec = parse_compact((DEMOS / "peerreview.cpt").read_text())
    blocks, config = bench_generators().peerreview_inputs(1, 80)
    org = Organization.make(spec.context, config["roles"])
    chain = Chain(blocks=(GENESIS_BLOCK,) + tuple(blocks))
    closed = {i.closed_at for i in fold_chain(chain, spec, org).instances.values()}
    lapsed = [h for h in range(1, len(blocks)) if not blocks[h - 1].events and Position(h, -1) in closed]
    assert len(lapsed) >= 3
    state = initial_state(spec, org)
    for h, block in enumerate(chain.blocks[1 : lapsed[2] + 1], 1):  # batch is quadratic: the first three
        state = apply_block(state, block)
        if h in lapsed:
            expected = evaluate(Chain(blocks=chain.blocks[: h + 2]), spec, org)
            assert apply_block(state, chain.blocks[h + 1]) == expected  # continues the run
            assert apply_block(state, chain.blocks[h + 1]) == expected  # re-folds it


@pytest.mark.parametrize("seed", range(20))
def test_a_block_that_fails_part_way_leaves_its_input_usable(monkeypatch, seed):
    # process_block clears the run's frontier until the block is done: a run
    # an exception left part-way through a block must not be continued from
    # the state it started at, or its trace repeats the block's positions
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
    retried = apply_block(before, chain.blocks[k])
    state = retried
    for block in chain.blocks[k + 1:]:
        state = apply_block(state, block)
    expected = evaluate(chain, spec, org)
    assert state == expected
    positions = [pos for pos, _ in state.run.trace]
    assert all(a < b for a, b in zip(positions, positions[1:]))
    for block in chain.blocks[k + 1:]:  # the run has moved on: a re-fold
        retried = apply_block(retried, block)
    assert retried == expected


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


# --- the agenda and the lapse heap --------------------------------------------
#
# The fold steps only the instances a block touched, in batch's order. Its
# transitions, and their order, must be batch's: an agenda stepped out of
# creation order, or one that defers a later instance woken in this pass,
# changes the order before it changes a final state.


def transition_log(engine, chain, spec, org, monkeypatch) -> list:
    """Every _transition call one engine makes on a chain, in order."""
    log = []
    real = _Run._transition

    def recording(self, key, updated, at):
        log.append((key, updated, at))
        real(self, key, updated, at)

    with monkeypatch.context() as patched:
        patched.setattr(_Run, "_transition", recording)
        engine(chain, spec, org)
    return log


def same_transitions(chain, spec, org, monkeypatch) -> list:
    """Batch's transition log, once the fold's is found equal to it."""
    batch = transition_log(evaluate, chain, spec, org, monkeypatch)
    assert transition_log(fold_chain, chain, spec, org, monkeypatch) == batch
    return batch


def _network_case(spec_file, lines, config, tmp_path):
    """The chain a network run adopts, with its compact and organization."""
    scenario, net = tmp_path / "scenario.jsonl", tmp_path / "net.json"
    scenario.write_text("".join(json.dumps(line) + "\n" for line in lines))
    net.write_text(json.dumps(config))
    return _demo_case(spec_file, scenario, net)


def _demo_case(spec_file, scenario, net):
    spec = parse_compact((DEMOS / spec_file).read_text())
    config, roles = fileformats.read_network_config(str(net))
    org = Organization.make(spec.context, roles)
    scenario = fileformats.read_scenario(str(scenario))
    return spec, org, run_network(scenario, config, rules=ruleset_from_spec(spec), org=org).active_chain


@pytest.mark.parametrize("spec_file, scenario, net", [
    ("hospital.cpt", "hospital_violation.jsonl", "hospital_net.json"),
    ("hospital.cpt", "hospital_compliant.jsonl", "hospital_net.json"),
    ("tumorboard.cpt", "tumorboard_member.jsonl", "tumorboard_net.json"),
    ("tumorboard.cpt", "tumorboard_nonmember.jsonl", "tumorboard_net.json"),
    ("coldchain.cpt", "coldchain.jsonl", "coldchain_net.json"),
    ("liftservice.cpt", "liftservice.jsonl", "liftservice_net.json"),
])
def test_the_fold_makes_batchs_transitions_in_order_on_the_demos(monkeypatch, spec_file, scenario, net):
    spec, org, chain = _demo_case(spec_file, DEMOS / scenario, DEMOS / net)
    same_transitions(chain, spec, org, monkeypatch)  # the nonmember's events are refused: none


def test_the_fold_makes_batchs_transitions_in_order_on_the_narratives(monkeypatch, hospital_spec, hospital_org):
    for groups in hospital_events():
        assert same_transitions(build_chain(groups), hospital_spec, hospital_org, monkeypatch)


def test_the_fold_makes_batchs_transitions_in_order_on_generated_hospital_runs(monkeypatch, tmp_path):
    lines, config = bench_generators().hospital_inputs(1, 40)
    spec, org, chain = _network_case("hospital.cpt", lines, config, tmp_path)
    assert same_transitions(chain, spec, org, monkeypatch)


@pytest.mark.parametrize("workload, size", [("datatrust", 60), ("peerreview", 80)])
def test_the_fold_makes_batchs_transitions_in_order_on_generated_chains(monkeypatch, workload, size):
    blocks, config = getattr(bench_generators(), f"{workload}_inputs")(1, size)
    spec = parse_compact((DEMOS / f"{workload}.cpt").read_text())
    org = Organization.make(spec.context, config["roles"])
    assert same_transitions(Chain(blocks=(GENESIS_BLOCK,) + tuple(blocks)), spec, org, monkeypatch)


@pytest.mark.parametrize("seed", range(40))
def test_the_fold_makes_batchs_transitions_in_order_on_random_cases(monkeypatch, seed):
    spec, org, chain, _ = random_case(seed)
    same_transitions(chain, spec, org, monkeypatch)  # some cases make none


def test_a_match_wakes_an_instance_that_binds_fewer_of_its_names(monkeypatch):
    # K's instances bind x, created on A or on B. A consequent match binds x
    # and y, so it agrees with an instance on x, the one name both bind, and
    # must satisfy it.
    spec = parse_compact((FIXTURES / "or_create.cpt").read_text())
    assert [d for d in check_well_formedness(spec) if d.severity == "error"] == []
    roster = {"r": "r-key"}
    org = Organization.make(spec.context, {"r": ["R"]})

    def ev(i, event_type, attributes):
        return signed_event(f"e{i}", event_type, attributes, "r", roster)

    chain = build_chain([
        [ev(0, "A", {"x": "a"}), ev(1, "B", {"x": "b"})],
        [ev(2, "Go", {"x": "a"}), ev(3, "Go", {"x": "b"})],
        [],
        [ev(4, "D", {"x": "a", "y": "q"}), ev(5, "E", {"y": "q"}), ev(6, "D", {"x": "b", "y": "c"})],
        [ev(7, "E", {"y": "c"})], [], [], [],
    ])
    state = fold_chain(chain, spec, org)
    assert state == evaluate(chain, spec, org)
    by_key = {inst.key_bindings: inst for inst in state.instances.values()}
    assert set(by_key) == {(("x", "a"),), (("x", "b"),)}
    assert {inst.state for inst in by_key.values()} == {NormState.SATISFIED}
    assert same_transitions(chain, spec, org, monkeypatch)


# B both detaches X and performs it, so X detaches in one pass and is
# satisfied in the next. Y is created after X and is met by X's detachment:
# batch steps Y in the pass X detaches in, before X is stepped again.
WOKEN_LATER_IN_THE_PASS = """compact SamePass context org {
  roles R;
  schema A(x: text key);
  schema B(x: text key);
  channel main members R carries A, B;
  commitment X subject R object R {
    create on A(x);
    antecedent B(x);
    consequent B(x) within 5 blocks;
  }
  commitment Y subject R object R {
    create on A(x);
    consequent detached X(x) within 5 blocks;
  }
}
"""


def test_an_instance_woken_later_in_the_pass_steps_in_that_pass(monkeypatch):
    spec = parse_compact(WOKEN_LATER_IN_THE_PASS)
    roster = {"r": "r-key"}
    org = Organization.make(spec.context, {"r": ["R"]})
    chain = build_chain([
        [signed_event("e0", "A", {"x": "a"}, "r", roster)],
        [signed_event("e1", "B", {"x": "a"}, "r", roster)],
    ])
    log = same_transitions(chain, spec, org, monkeypatch)
    assert [(key[0], updated.state) for key, updated, _ in log] == [
        ("X", NormState.DETACHED), ("Y", NormState.SATISFIED), ("X", NormState.SATISFIED),
    ]


def test_an_empty_block_with_no_lapse_due_reads_no_match(monkeypatch):
    # and over the whole fold, the agenda steps at most half the instances
    # batch steps: batch steps every live instance in every pass
    blocks, config = bench_generators().peerreview_inputs(1, 80)
    spec = parse_compact((DEMOS / "peerreview.cpt").read_text())
    org = Organization.make(spec.context, config["roles"])
    chain = Chain(blocks=(GENESIS_BLOCK,) + tuple(blocks))
    reads, steps = [0], {"fold": 0, "batch": 0}
    real_reads = incremental._IncrementalRun.clause_matches

    def reading(self, *args):
        reads[0] += 1
        return real_reads(self, *args)

    def stepping(method):
        def wrapper(self, *args):
            steps["fold" if isinstance(self, incremental._IncrementalRun) else "batch"] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(incremental._IncrementalRun, "clause_matches", reading)
    for step in ("_step_commitment", "_step_prohibition"):
        monkeypatch.setattr(_Run, step, stepping(getattr(_Run, step)))
    quiet = []
    state = initial_state(spec, org)
    batch = evaluate(chain, spec, org)
    lapsed = {
        inst.closed_at.block_index for inst in batch.instances.values()
        if inst.closed_at is not None and inst.closed_at.offset_in_block == -1
    }
    for block in blocks:
        before = reads[0]
        state = apply_block(state, block)
        if not block.events and block.header.index not in lapsed:
            quiet.append(reads[0] - before)
    assert state == batch
    assert len(quiet) >= 50 and lapsed
    assert quiet == [0] * len(quiet)
    assert 0 < 2 * steps["fold"] <= steps["batch"], steps


def _generated_chain(workload="peerreview", size=80):
    blocks, config = getattr(bench_generators(), f"{workload}_inputs")(1, size)
    spec = parse_compact((DEMOS / f"{workload}.cpt").read_text())
    org = Organization.make(spec.context, config["roles"])
    return spec, org, Chain(blocks=(GENESIS_BLOCK,) + tuple(blocks))


def _pass_log(monkeypatch, spec, org, chain) -> tuple[dict, Counter]:
    """Each engine's run of the chain as a log of events, boundary lapses
    and pass starts, each entry paired with whether a pass starts next; and
    each engine's lifecycle steps. The two engines' states must be equal."""
    real = {name: getattr(_Run, name) for name in ("_lapse", "_spawn", "process_event")}
    real_event = incremental._IncrementalRun.process_event
    logs, steps = {}, Counter()

    def due(run):
        return bool(run.agenda or run.unspawned) if isinstance(run, incremental._IncrementalRun) else None

    def lapsing(self, now):
        live, before = len(self.live), due(self)
        real["_lapse"](self, now)
        logs[engine].append(("lapse", now.block_index, len(self.live) < live, before, due(self)))

    def spawning(self):
        logs[engine].append(("pass", due(self)))
        real["_spawn"](self)

    def batch_event(self, pos, item):
        logs[engine].append(("event",))
        real["process_event"](self, pos, item)

    def fold_event(self, pos, item):
        logs[engine].append(("event",))
        real_event(self, pos, item)

    def stepping(method):
        def step(self, *args):
            steps[engine] += 1
            return method(self, *args)

        return step

    monkeypatch.setattr(_Run, "_lapse", lapsing)
    monkeypatch.setattr(_Run, "_spawn", spawning)
    monkeypatch.setattr(_Run, "process_event", batch_event)
    monkeypatch.setattr(incremental._IncrementalRun, "process_event", fold_event)
    for name in ("_step_commitment", "_step_prohibition"):
        monkeypatch.setattr(_Run, name, stepping(getattr(_Run, name)))
    states = []
    for engine, run in (("batch", evaluate), ("fold", fold_chain)):
        logs[engine] = []
        states.append(run(chain, spec, org))
    assert states[0] == states[1]
    follows = {
        engine: [(entry, then[0] == "pass") for entry, then in zip(log, log[1:] + [("end",)])]
        for engine, log in logs.items()
    }
    return follows, steps


def _check_pass_rules(follows) -> list[tuple]:
    """Each engine's pass rule on a log; returns the fold's boundaries as
    (height, whether an instance lapsed, whether a pass ran)."""
    assert all(passes for entry, passes in follows["batch"] if entry[0] == "event")
    assert all(passes == entry[2] for entry, passes in follows["batch"] if entry[0] == "lapse")
    assert all(entry[1] for entry, _ in follows["fold"] if entry[0] == "pass")
    boundaries = [(entry, passes) for entry, passes in follows["fold"] if entry[0] == "lapse"]
    assert all(not before and passes == after for (_, _, _, before, after), passes in boundaries)
    return [(height, closed, passes) for (_, height, closed, _, _), passes in boundaries]


# Seed-1 totals: fold passes, fold steps, batch passes
PASS_TOTALS = {"datatrust": (330, 330, 495), "peerreview": (456, 456, 504)}


@pytest.mark.parametrize("workload, size, lapses, idle", [("datatrust", 60, 0, 105), ("peerreview", 80, 16, 0)])
def test_a_pass_runs_only_where_a_block_changed_something(monkeypatch, workload, size, lapses, idle):
    # _due is each engine's rule for starting a pass. The fold's is that the
    # agenda or the unspawned create matches are non-empty, since a pass
    # steps only the one and spawns only the other: no fold pass starts with
    # both empty, and a boundary, where only its lapses can fill them, passes
    # exactly when they woke or created something. Batch's is that an event
    # or a fact arrived since the last pass began: it passes at every event,
    # and at a boundary exactly when an instance lapsed. At seed 1, 105 of
    # datatrust's 345 events run no fold pass, and 16 of peerreview's 269
    # boundaries lapse an instance but wake and create nothing, so the fold
    # passes at none of them.
    follows, steps = _pass_log(monkeypatch, *_generated_chain(workload, size))
    boundaries = _check_pass_rules(follows)
    assert sum(closed for _, closed, _ in boundaries) == lapses
    assert not any(passes for _, _, passes in boundaries)
    assert sum(not passes for entry, passes in follows["fold"] if entry[0] == "event") == idle
    fold, batch = (sum(entry[0] == "pass" for entry, _ in follows[engine]) for engine in ("fold", "batch"))
    assert (fold, steps["fold"], batch) == PASS_TOTALS[workload]


# C's violation creates a Remedy at the boundary of block 4, Offer's expiry
# wakes Watch, which it detaches, at block 6, and the Remedy's violation at
# block 8 wakes and creates nothing.
LAPSES_THAT_WAKE = """compact Lapses context org {
  roles R;
  schema Ask(x: text key);
  schema Go(x: text key);
  schema Do(x: text key);
  channel m members R carries Ask, Go, Do;
  commitment C subject R object R {
    create on Ask(x);
    consequent Do(x) within 2 blocks;
  }
  commitment Remedy subject R object R {
    create on violated C(x);
    consequent Do(x) within 3 blocks;
  }
  commitment Offer subject R object R {
    create on Go(x);
    antecedent Ask(x);
    consequent Do(x) within 9 blocks;
    expires after 4 blocks;
  }
  commitment Watch subject R object R {
    create on Go(x);
    antecedent expired Offer(x);
    consequent Do(x) within 9 blocks;
  }
}
"""


def test_a_boundary_passes_exactly_where_its_lapses_wake_or_create(monkeypatch):
    spec = parse_compact(LAPSES_THAT_WAKE)
    org = Organization.make(spec.context, {"r": ["R"]})
    first = [Event.make("e1", "Ask", {"x": "a"}, "r"), Event.make("e2", "Go", {"x": "b"}, "r")]
    chain = build_chain([first] + [[]] * 7)
    states = {inst.norm_id: inst.state.value for inst in fold_chain(chain, spec, org).instances.values()}
    assert states == {"C": "violated", "Remedy": "violated", "Offer": "expired", "Watch": "detached"}
    boundaries = _check_pass_rules(_pass_log(monkeypatch, spec, org, chain)[0])
    lapsed = [(height, passes) for height, closed, passes in boundaries if closed]
    assert lapsed == [(4, True), (6, True), (8, False)]
    assert not any(passes for _, closed, passes in boundaries if not closed)


def test_a_block_that_changes_nothing_shares_its_parent_state():
    # freeze hands a state the run's own instance table and facts tuple;
    # only a write to the table or a new fact makes a new one
    spec, org, chain = _generated_chain()
    state, shared = initial_state(spec, org), 0
    for block in chain.blocks[1:]:
        advanced = apply_block(state, block)
        if advanced.instances == state.instances and advanced.facts == state.facts:
            assert advanced.instances is state.instances and advanced.facts is state.facts
            shared += 1
        state = advanced
    assert shared >= 50  # 95 at seed 1: the empty blocks where nothing lapsed


def test_a_state_never_changes_while_its_run_goes_on():
    # each state shares the run's table until the run next writes it; every
    # state is compared, once the fold is done, with a deep copy taken as it
    # was returned. Past the first 45 states come empty blocks, blocks whose
    # boundary lapses an instance and blocks that spawn one.
    spec, org, chain = _generated_chain()
    states = [initial_state(spec, org)]
    copies = [copy.deepcopy((states[0].instances, states[0].facts, states[0].frontier))]
    for block in chain.blocks[1:]:
        states.append(apply_block(states[-1], block))
        copies.append(copy.deepcopy((states[-1].instances, states[-1].facts, states[-1].frontier)))
    for state, taken in zip(states, copies):
        assert (state.instances, state.facts, state.frontier) == taken
    final = states[-1].instances.values()
    lapsed = {i.closed_at.block_index for i in final if i.closed_at and i.closed_at.offset_in_block == -1}
    spawned = {i.created_at.block_index for i in final}
    empty = {b.header.index for b in chain.blocks if not b.events} - lapsed
    assert all(len(kind) >= 3 and min(kind) <= 45 for kind in (lapsed, spawned, empty))


@pytest.mark.parametrize("workload, size", [("datatrust", 60), ("peerreview", 80)])
def test_a_clause_match_wakes_exactly_the_live_instances_that_agree_with_it(monkeypatch, workload, size):
    # a wake-up that missed an agreeing instance could leave a transition
    # unmade; one that woke every live instance of the norm would step
    # instances no new match can move. The set is recomputed by scanning live,
    # from what each route's offer or join adds at the root its climb ends at.
    blocks, config = getattr(bench_generators(), f"{workload}_inputs")(1, size)
    spec = parse_compact((DEMOS / f"{workload}.cpt").read_text())
    org = Organization.make(spec.context, config["roles"])
    added, woken, totals = [], [], Counter()
    real_offer = incremental._CondIndex.offer
    real_join = incremental._CondIndex.join
    real_wake = incremental._IncrementalRun._wake
    real_advance = incremental._IncrementalRun._advance

    def offering(self, pos, item):
        fresh = real_offer(self, pos, item)
        added.append((self, fresh))
        return fresh

    def joining(self, child, delta):
        fresh = real_join(self, child, delta)
        added.append((self, fresh))
        return fresh

    def waking(self, key):
        woken.append(key)
        real_wake(self, key)

    def advancing(self, pos, head, item):
        added.clear()
        woken.clear()
        real_advance(self, pos, head, item)
        clause_of = {  # a route's root: the last step's parent, or the leaf itself
            climb[-1][1] if climb else leaf: (norm_id, clause) for leaf, climb, norm_id, clause in self.routes.get(head, ())
        }
        expected, of_the_norms = set(), set()
        for node, fresh in added:
            if node not in clause_of:  # below a root
                continue
            norm_id, clause = clause_of[node]
            if clause == "create" or not fresh:
                continue
            of_the_norms |= {key for key in self.live if key[0] == norm_id}
            for match in fresh:
                bound = dict(match.bindings)
                expected |= {
                    key for key in self.live
                    if key[0] == norm_id and all(bound.get(name, value) == value for name, value in key[1])
                }
        assert set(woken) == expected
        totals["woken"] += len(expected)
        totals["spared"] += len(of_the_norms - expected)

    monkeypatch.setattr(incremental._CondIndex, "offer", offering)
    monkeypatch.setattr(incremental._CondIndex, "join", joining)
    monkeypatch.setattr(incremental._IncrementalRun, "_wake", waking)
    monkeypatch.setattr(incremental._IncrementalRun, "_advance", advancing)
    fold_chain(Chain(blocks=(GENESIS_BLOCK,) + tuple(blocks)), spec, org)
    assert totals["woken"] > 0 and totals["spared"] > 0, totals


def test_the_incremental_run_overrides_no_lifecycle_rule():
    # the lifecycle is written once, in _Run. The fold answers its match
    # queries, narrows its passes and lapse checks, says when a pass is due
    # (_due), files what _enlist hands it, and routes events and facts to
    # leaves. process_event stays because
    # ('compacts.incremental', 'counts_as_facts_for_event') is a bench hook.
    overridden = {
        name for name, value in vars(incremental._IncrementalRun).items()
        if callable(value) and hasattr(_Run, name)
    }
    assert overridden == {
        "__init__", "clause_matches", "create_matches", "_pass_keys", "_lapse_keys", "_enlist",
        "add_fact", "process_event", "_due",
    }


# --- alpha routing -------------------------------------------------------------
#
# An event or fact is offered only to the leaves whose head names it, and a
# leaf's new matches climb its tree. shared_heads.cpt puts one event type and
# one fact name on both sides of an and, an or and a before, so one event or
# fact completes leaves on both sides of a node in one step.


def _shared_heads():
    spec = parse_compact((FIXTURES / "shared_heads.cpt").read_text())
    assert [d for d in check_well_formedness(spec) if d.severity == "error"] == []
    roster = {"r": "r-key"}
    return spec, Organization.make(spec.context, {"r": ["R"]}), roster


def test_a_node_with_one_head_on_both_sides_matches_as_batch_does(monkeypatch):
    spec, org, roster = _shared_heads()
    events = iter(range(100))

    def ev(event_type, x, tag=None):
        attributes = {"x": x} if tag is None else {"x": x, "tag": tag}
        return signed_event(f"e{next(events)}", event_type, attributes, "r", roster)

    chain = build_chain([
        [ev("Ping", "p", "a"), ev("Ping", "t", "z"), ev("Mark", "u", "z")],  # p: one Ping, both sides of the and
        [ev("Ping", "q", "z"), ev("Mark", "s", "a"), ev("Ping", "w", "b")],  # s: one Seen, both sides of the and
        [ev("Ping", "q", "b"), ev("Mark", "r", "z"), ev("Go", "p")],  # q: Ping before Ping
        [ev("Mark", "r", "b"), ev("Go", "s"), ev("Ping", "p", "c")],  # r: Seen before Seen
        [ev("Go", "q")], [], [], [], [],
    ])
    state = fold_chain(chain, spec, org)
    assert state == evaluate(chain, spec, org)
    created = {inst.norm_id + dict(inst.key_bindings)["x"] for inst in state.instances.values()}
    assert {"Kp", "Kq", "Kr", "Ks", "Lp", "Lq", "Lr", "Ls"} == created
    assert same_transitions(chain, spec, org, monkeypatch)


@pytest.mark.parametrize("seed", range(12))
def test_a_node_with_one_head_on_both_sides_matches_as_batch_does_on_random_chains(monkeypatch, seed):
    spec, org, roster = _shared_heads()
    rng = random.Random(seed)
    groups, n = [], 0
    for _ in range(rng.randint(6, 14)):
        group = []
        for _ in range(rng.choice((0, 1, 2, 3, 4))):
            event_type = rng.choice(("Ping", "Ping", "Mark", "Mark", "Go"))
            attributes = {"x": rng.choice("pqr")}
            if event_type != "Go":
                attributes["tag"] = rng.choice("abcz")
            group.append(signed_event(f"e{n}", event_type, attributes, "r", roster))
            n += 1
        groups.append(group)
    chain = build_chain(groups)
    assert fold_chain(chain, spec, org) == evaluate(chain, spec, org)
    same_transitions(chain, spec, org, monkeypatch)


def _head(pattern) -> tuple[str, str]:
    if isinstance(pattern, ast.EventPattern):
        return ("event", pattern.event_type)
    if isinstance(pattern, ast.FactPattern):
        return ("fact", pattern.fact)
    return ("fact", f"{pattern.state}({pattern.norm_id})")


@pytest.mark.parametrize("workload, size", [("datatrust", 60), ("peerreview", 80)])
def test_each_event_and_fact_is_offered_only_to_the_leaves_that_name_it(monkeypatch, workload, size):
    # at seed 1: 330 offers on datatrust-60 and 376 on peerreview-80, where
    # offering every event and fact to every clause's whole tree made 4,455
    # and 3,264 calls
    blocks, config = getattr(bench_generators(), f"{workload}_inputs")(1, size)
    spec = parse_compact((DEMOS / f"{workload}.cpt").read_text())
    org = Organization.make(spec.context, config["roles"])
    offered = Counter()
    real_offer = incremental._CondIndex.offer

    def counting(self, pos, item):
        offered[item] += 1
        return real_offer(self, pos, item)

    monkeypatch.setattr(incremental._CondIndex, "offer", counting)
    state = fold_chain(Chain(blocks=(GENESIS_BLOCK,) + tuple(blocks)), spec, org)
    leaves = Counter(
        _head(pattern) for norm in spec.norms for _, cond in norm.clauses() for pattern in ast.patterns_of(cond)
    )
    expected = Counter()
    for block in blocks:
        for event in block.events:
            expected[event] = leaves[("event", event.event_type)]
    for fact in state.facts:
        expected[fact] = leaves[("fact", fact.name)]
    assert +offered == +expected
    assert any(offered[fact] for fact in state.facts)  # datatrust's include violated(NoExport)


# --- compiled leaves and keyed probes ------------------------------------------
#
# A leaf runs its compiled plan, not the batch leaf functions, and a probe
# looks matches up by a sorted bindings tuple. Both are held here to what
# they replace: the batch leaf functions followed by freeze_bindings, and a
# scan for the matches that agree on every name both bind. Values compare
# with their types, so True in place of 1 is a difference.

_VALUES = st.sampled_from([True, False, 1, 0, 2, "1", "0", "a"])
_ATTRIBUTES = st.sampled_from("abcde")
_TERMS = st.one_of(st.builds(ast.Literal, _VALUES), st.builds(ast.Variable, st.sampled_from("xyz")))
_CONSTRAINTS = st.lists(st.builds(ast.Constraint, st.sampled_from("abcd"), _TERMS), max_size=5).map(tuple)


def _typed(matches) -> list:
    return [(m.witness, [(name, type(value), value) for name, value in m.bindings]) for m in matches]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    head=st.sampled_from(("event", "fact", "state")),
    constraints=_CONSTRAINTS,
    attributes=st.dictionaries(_ATTRIBUTES, _VALUES, max_size=5),
)
@example(head="event", constraints=(ast.Constraint("a", ast.Literal(True)),), attributes={"a": 1})
@example(head="event", constraints=(ast.Constraint("a", ast.Literal(1)),), attributes={"a": "1"})
@example(
    head="fact",
    constraints=(ast.Constraint("a", ast.Variable("x")), ast.Constraint("b", ast.Variable("x"))),
    attributes={"a": True, "b": 1},
)
def test_a_compiled_leaf_matches_as_the_batch_leaf_functions_do(head, constraints, attributes):
    pos = Position(3, 1)
    if head == "event":
        pattern, item = ast.EventPattern("T", constraints), Event.make("e", "T", attributes, "r")
        extended = match_event_pattern(pattern, item, {})
    else:
        if head == "fact":
            pattern = ast.FactPattern("F", constraints)
        else:
            pattern = ast.NormStateFactPattern("violated", "N", constraints)
        item = DerivedFact(fact_name(pattern), freeze_bindings(attributes), pos)
        extended = match_fact_pattern(pattern, item, {})
    expected = [] if extended is None else [Match(freeze_bindings(extended), pos)]
    with mock.patch.object(matching, "_extend", side_effect=AssertionError("a plan must not call _extend")):
        offered = incremental._CondIndex(pattern).offer(pos, item)
    assert _typed(offered) == _typed(expected)


_BINDINGS = st.dictionaries(st.sampled_from("xyz"), _VALUES, max_size=3).map(freeze_bindings)
_MATCHES = st.lists(st.builds(Match, _BINDINGS, st.builds(Position, st.integers(1, 3), st.integers(-1, 2))))
_PROBES = st.lists(st.dictionaries(st.sampled_from("wxyz"), _VALUES).map(freeze_bindings))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(batches=st.lists(st.tuples(_MATCHES, _PROBES), min_size=1, max_size=4))
def test_a_probe_finds_the_matches_that_agree_on_every_name_both_bind(batches):
    # matches are added between probes, so views are both built from the
    # matches there and kept up as matches are added
    index, held = incremental._CondIndex(ast.EventPattern("T", ())), {}
    for matches, probes in batches:
        index._absorb(matches)
        held.update(dict.fromkeys(matches))
        for probe in probes:
            found = index.compatible_with(probe)
            expected = [m for m in held if all(dict(m.bindings).get(name, value) == value for name, value in probe)]
            assert len(found) == len(set(found)) and set(found) == set(expected)
