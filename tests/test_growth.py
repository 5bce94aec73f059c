"""The fold's work per event stays flat as the chain grows, and the
network's grows as the run's events do, but for four known-quadratic counts.

Four counts are taken while apply_block folds a generated chain (bench
generators, seed 1):

- probes: calls of ``_CondIndex.compatible_with``, each a lookup of the
  cached matches of one condition that agree with some bindings (a join, a
  wake-up or a lifecycle rule's clause query);
- offers: calls of ``_CondIndex.offer``, each an event or fact handed to a
  leaf whose head names it;
- passes: fixpoint passes, calls of ``_Run._spawn``, which starts each
  pass; the fold starts one only when its agenda or its unspawned create
  matches are non-empty;
- steps: lifecycle steps, calls of ``_Run._step_commitment`` and
  ``_Run._step_prohibition``, one per instance a pass steps.

Only blocks that carry events count. They are split in height order into
five quintiles of equally many blocks, and each count is divided by the
events in its quintile. If a block's work grew with the chain behind it,
the last quintile would read more per event than the first. At seed 1 the
largest quintile reads at most 1.048 times the smallest on peerreview and
at most 1.071 times on datatrust; the gate is 1.1.

The network's work is counted over a whole run_network of a generated
hospital scenario (bench generators, seed 1) at 10, 20, 40 and 80 patients,
run under hospital.cpt's rules and roles as compacts run does:

- schema_checks, integrity_checks: the calls of validate_event_schema and
  check_integrity that network admission makes;
- validate_block: the blocks verification checks. A peer does not verify a
  block it mined, and every chain an honest peer receives ends at a block
  in the shared verify memo, so an honest run makes none;
- entries_copied: for each ``LedgerIndex.copy``, the event ids, bound
  values and ``outs`` keys of the index copied;
- seen_scanned: for each ``_Peer.turn``, the events the peer has seen,
  each of which the turn's pending list scans;
- verify_event_signature: the signature checks a peer's receive makes;
- events_digest: the blocks' events digests computed, by mining or by
  validation;
- memo_entries, memo_blocks, memo_index_entries: what the run's shared
  verify memo retains at its end, standing in for retained memory: its
  entries, the blocks its chains reference (each chain counted whole) and
  the entries, counted as for entries_copied, of the indexes its chains
  hold.

For each count the least-squares slope of its logarithm against that of
the scenario's events is taken over the four sizes. The admission checks,
signature checks, events digests and memo entries grow at most with the
events (slope at most 1.1; 1.014, 0.988, 0.668 and 0.668 at seed 1).
entries_copied, seen_scanned, memo_blocks and memo_index_entries are
known-quadratic: each mined block copies its parent's whole index, each
turn scans every seen event, and each memo chain holds its whole prefix
and its own index (ROADMAP items 12 and 5). They are gated at slope 2.1
(1.647, 1.544, 1.241 and 1.592 at seed 1), a bound that later changes may
only tighten.

The counts must repeat exactly under every hash seed, so the test runs this
file as a script under PYTHONHASHSEED 0 to 3; the script prints each
workload's counts as JSON:

    PYTHONPATH=src python tests/test_growth.py
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from compacts import evaluator, incremental, ledger, network
from compacts.fileformats import read_network_config, read_scenario
from compacts.governance import Organization, ruleset_from_spec
from compacts.lang import parse_compact
from compacts.validator import LedgerIndex

from conftest import DEMOS, REPO, bench_generators

WORKLOADS = [("peerreview", 80), ("peerreview", 160), ("peerreview", 320), ("datatrust", 120), ("datatrust", 240)]
COUNTED = {
    "probes": [(incremental._CondIndex, "compatible_with")],
    "offers": [(incremental._CondIndex, "offer")],
    "passes": [(evaluator._Run, "_spawn")],
    "steps": [(evaluator._Run, "_step_commitment"), (evaluator._Run, "_step_prohibition")],
}
BOUND = 1.1
PATIENTS = (10, 20, 40, 80)
NETWORK_COUNTED = {
    "schema_checks": [(network, "validate_event_schema")],
    "integrity_checks": [(network, "check_integrity")],
    "validate_block": [(ledger, "validate_block")],
    "entries_copied": [(LedgerIndex, "copy")],
    "seen_scanned": [(network._Peer, "turn")],
    "verify_event_signature": [(network, "verify_event_signature")],
    "events_digest": [(ledger, "events_digest")],
}
WEIGHT = {  # what one call adds, read from its first argument; else 1
    "entries_copied": lambda index: len(index.event_ids) + len(index.bound) + len(index.outs),
    "seen_scanned": lambda peer: len(peer.seen),
}
SLOPE_BOUND = {
    "schema_checks": 1.1, "integrity_checks": 1.1, "verify_event_signature": 1.1, "events_digest": 1.1,
    "memo_entries": 1.1, "entries_copied": 2.1, "seen_scanned": 2.1, "memo_blocks": 2.1, "memo_index_entries": 2.1,
}


@contextmanager
def counting(counted: dict, counts: Counter):
    """While the block runs, each call of a method in counted adds its
    weight (WEIGHT, else 1) to counts under its name."""
    real = {}

    def wrapped(name, method):
        weight = WEIGHT.get(name, lambda _: 1)

        def counted_call(*args, **kwargs):
            counts[name] += weight(args[0])
            return method(*args, **kwargs)

        return counted_call

    for name, methods in counted.items():
        for owner, attribute in methods:
            method = real[(owner, attribute)] = getattr(owner, attribute)
            setattr(owner, attribute, wrapped(name, method))
    try:
        yield
    finally:
        for (owner, attribute), method in real.items():
            setattr(owner, attribute, method)


def work_by_quintile(workload: str, size: int) -> list[dict[str, int]]:
    """Events and each count in the five height quintiles of the blocks
    that carry events."""
    blocks, config = getattr(bench_generators(), f"{workload}_inputs")(1, size)
    spec = parse_compact((DEMOS / f"{workload}.cpt").read_text())
    org = Organization.make(spec.context, config["roles"])
    counts = Counter()
    with counting(COUNTED, counts):
        state, rows = incremental.initial_state(spec, org), []
        for block in blocks:
            before = counts.copy()
            state = incremental.apply_block(state, block)
            if block.events:
                rows.append(Counter(counts - before, events=len(block.events)))
    quintiles = [rows[k * len(rows) // 5 : (k + 1) * len(rows) // 5] for k in range(5)]
    return [dict(sum(quintile, Counter())) for quintile in quintiles]


def network_work(patients: int) -> dict[str, int]:
    """Events and each network count of one hospital run, its inputs read
    from files as compacts run reads them. The memo is read from the first
    peer the run makes: peers share it."""
    lines, net = bench_generators().hospital_inputs(1, patients)
    with tempfile.TemporaryDirectory() as work:
        scenario_path, net_path = Path(work, "scenario.jsonl"), Path(work, "net.json")
        scenario_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        net_path.write_text(json.dumps(net))
        scenario, (config, roles) = read_scenario(str(scenario_path)), read_network_config(str(net_path))
    spec = parse_compact((DEMOS / "hospital.cpt").read_text())
    org = Organization.make(spec.context, roles)
    counts, peers, make = Counter({name: 0 for name in NETWORK_COUNTED}), [], network._Peer
    with counting(NETWORK_COUNTED, counts), pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_Peer", lambda *args: peers.append(make(*args)) or peers[-1])
        network.run_network(scenario, config, rules=ruleset_from_spec(spec), org=org)
    chains = peers[0].memo.values()
    held = [index for chain in chains for index, _ in chain._admission]
    return dict(
        counts,
        events=len(scenario),
        memo_entries=len(chains),
        memo_blocks=sum(len(chain.blocks) for chain in chains),
        memo_index_entries=sum(map(WEIGHT["entries_copied"], held)),
    )


def _all_work() -> dict:
    work = {f"{workload}-{size}": work_by_quintile(workload, size) for workload, size in WORKLOADS}
    work.update({f"hospital-{patients}": network_work(patients) for patients in PATIENTS})
    return work


@pytest.fixture(scope="module")
def work_by_hash_seed() -> list[dict]:
    runs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(REPO / "src"))
        done = subprocess.run(
            [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300, check=True
        )
        runs.append(json.loads(done.stdout))
    return runs


def test_each_count_repeats_under_every_hash_seed(work_by_hash_seed):
    first = work_by_hash_seed[0]
    names = [f"{workload}-{size}" for workload, size in WORKLOADS] + [f"hospital-{p}" for p in PATIENTS]
    assert sorted(first) == sorted(names)
    assert all(run == first for run in work_by_hash_seed[1:])


@pytest.mark.parametrize("workload, size", WORKLOADS)
@pytest.mark.parametrize("count", sorted(COUNTED))
def test_the_fold_s_work_per_event_is_flat_in_height(work_by_hash_seed, workload, size, count):
    per_event = [q[count] / q["events"] for q in work_by_hash_seed[0][f"{workload}-{size}"]]
    assert min(per_event) > 0
    assert max(per_event) <= BOUND * min(per_event), per_event


def test_an_honest_network_run_validates_no_block(work_by_hash_seed):
    assert [work_by_hash_seed[0][f"hospital-{p}"]["validate_block"] for p in PATIENTS] == [0] * len(PATIENTS)


@pytest.mark.parametrize("count", sorted(SLOPE_BOUND))
def test_the_network_s_work_grows_within_its_slope(work_by_hash_seed, count):
    runs = [work_by_hash_seed[0][f"hospital-{p}"] for p in PATIENTS]
    fit = statistics.linear_regression([math.log(run["events"]) for run in runs],
                                       [math.log(run[count]) for run in runs])
    assert fit.slope <= SLOPE_BOUND[count], [run[count] for run in runs]


if __name__ == "__main__":
    print(json.dumps(_all_work(), sort_keys=True))
