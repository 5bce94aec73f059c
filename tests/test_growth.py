"""The fold's work per event stays flat as the chain grows.

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

The counts must repeat exactly under every hash seed, so the test runs this
file as a script under PYTHONHASHSEED 0 to 3; the script prints each
workload's counts as JSON:

    PYTHONPATH=src python tests/test_growth.py
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from compacts import evaluator, incremental
from compacts.governance import Organization
from compacts.lang import parse_compact

from conftest import DEMOS, REPO, bench_generators

WORKLOADS = [("peerreview", 80), ("peerreview", 160), ("peerreview", 320), ("datatrust", 120), ("datatrust", 240)]
COUNTED = {
    "probes": [(incremental._CondIndex, "compatible_with")],
    "offers": [(incremental._CondIndex, "offer")],
    "passes": [(evaluator._Run, "_spawn")],
    "steps": [(evaluator._Run, "_step_commitment"), (evaluator._Run, "_step_prohibition")],
}
BOUND = 1.1


def work_by_quintile(workload: str, size: int) -> list[dict[str, int]]:
    """Events and each count in the five height quintiles of the blocks
    that carry events."""
    blocks, config = getattr(bench_generators(), f"{workload}_inputs")(1, size)
    spec = parse_compact((DEMOS / f"{workload}.cpt").read_text())
    org = Organization.make(spec.context, config["roles"])
    counts, real = Counter(), {}

    def counting(name, owner, attribute):
        method = real[(owner, attribute)] = getattr(owner, attribute)

        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted

    for name, methods in COUNTED.items():
        for owner, attribute in methods:
            setattr(owner, attribute, counting(name, owner, attribute))
    try:
        state, rows = incremental.initial_state(spec, org), []
        for block in blocks:
            before = counts.copy()
            state = incremental.apply_block(state, block)
            if block.events:
                rows.append(Counter(counts - before, events=len(block.events)))
    finally:
        for (owner, attribute), method in real.items():
            setattr(owner, attribute, method)
    quintiles = [rows[k * len(rows) // 5 : (k + 1) * len(rows) // 5] for k in range(5)]
    return [dict(sum(quintile, Counter())) for quintile in quintiles]


def _all_work() -> dict[str, list[dict[str, int]]]:
    return {f"{workload}-{size}": work_by_quintile(workload, size) for workload, size in WORKLOADS}


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
    assert sorted(first) == sorted(f"{workload}-{size}" for workload, size in WORKLOADS)
    assert all(run == first for run in work_by_hash_seed[1:])


@pytest.mark.parametrize("workload, size", WORKLOADS)
@pytest.mark.parametrize("count", sorted(COUNTED))
def test_the_fold_s_work_per_event_is_flat_in_height(work_by_hash_seed, workload, size, count):
    per_event = [q[count] / q["events"] for q in work_by_hash_seed[0][f"{workload}-{size}"]]
    assert min(per_event) > 0
    assert max(per_event) <= BOUND * min(per_event), per_event


if __name__ == "__main__":
    print(json.dumps(_all_work(), sort_keys=True))
