"""The lifecycle fixpoint's termination rule against a reference rule.

The batch and incremental engines share _Run, so their differential test
cannot see a fault in when the fixpoint stops. Here evaluate is compared with
a _Run whose fixpoint follows a more conservative rule: repeat until a pass
changes neither the instance table nor the fact count.

The random cases number 200 here; a long sweep sets COMPACTS_FUZZ_EXAMPLES:

    COMPACTS_FUZZ_EXAMPLES=2000 PYTHONPATH=src python -m pytest -q tests/test_fixpoint.py
"""

import os

import pytest

from compacts.evaluator import NormState, _Run, evaluate
from compacts.governance import Organization
from compacts.incremental import fold_chain
from compacts.lang import check_well_formedness, parse_compact
from compacts.ledger import Position

from conftest import build_chain, hospital_events, signed_event
from scenario_gen import random_case


class _UntilNothingChanges(_Run):
    def _fixpoint(self) -> None:
        while True:
            before = (dict(self.instances), len(self.facts))
            self._spawn()
            self._transitions()
            if (self.instances, len(self.facts)) == before:
                return


def reference_evaluate(chain, spec, org):
    run = _UntilNothingChanges(spec, org)
    for block in chain.blocks:
        run.process_block(block.header.index, block.events)
    return run.freeze()


@pytest.mark.parametrize("seed", range(int(os.environ.get("COMPACTS_FUZZ_EXAMPLES", 200))))
def test_fixpoint_equals_the_reference_rule_on_random_cases(seed):
    spec, org, chain, _ = random_case(seed, max_events=60)
    assert evaluate(chain, spec, org) == reference_evaluate(chain, spec, org)


@pytest.mark.parametrize("narrative", ["violation", "compliant"])
def test_fixpoint_equals_the_reference_rule_on_the_narratives(
    narrative, hospital_spec, hospital_org
):
    violation, compliant = hospital_events()
    chain = build_chain(violation if narrative == "violation" else compliant)
    got = evaluate(chain, hospital_spec, hospital_org)
    assert got == reference_evaluate(chain, hospital_spec, hospital_org)


@pytest.mark.parametrize("blocks, passes", [(1, 1), (4, 7)])
def test_a_pass_that_adds_no_fact_ends_the_fixpoint(
    blocks, passes, hospital_spec, hospital_org, monkeypatch
):
    """Each event takes one pass, plus one more for each pass that added a
    fact. A block boundary takes passes only where an instance lapses, and
    genesis, where nothing can lapse, takes none: no boundary here lapses."""
    violation, _ = hospital_events()
    chain = build_chain(violation[:blocks])
    calls = []
    spawn = _Run._spawn

    def counted(run):
        calls.append(run)
        spawn(run)

    monkeypatch.setattr(_Run, "_spawn", counted)
    evaluate(chain, hospital_spec, hospital_org)
    assert len(calls) == passes


# X detaches on creation and lapses at the first block past its deadline;
# its violation creates Y there, at the boundary, with no event after it.
LAPSE_CREATES = """compact LapseCreates context org {
  roles R;
  schema A(x: text key);
  schema Done(x: text key);
  channel main members R carries A, Done;
  commitment X subject R object R {
    create on A(x);
    consequent Done(x) within 1 blocks;
  }
  commitment Y subject R object R {
    create on violated X(x);
    consequent Done(x) within 5 blocks;
  }
}
"""


@pytest.mark.parametrize("engine", [evaluate, fold_chain])
def test_a_boundary_where_an_instance_lapses_runs_its_pass(engine):
    # both engines share the boundary rule, so their differential test
    # cannot see a boundary that skips its pass after a lapse: a chain that
    # ends at that boundary would then lack Y
    spec = parse_compact(LAPSE_CREATES)
    assert [d for d in check_well_formedness(spec) if d.severity == "error"] == []
    roster = {"r": "r-key"}
    org = Organization.make(spec.context, {"r": ["R"]})
    chain = build_chain([[signed_event("e0", "A", {"x": "a"}, "r", roster)], [], []])
    state = engine(chain, spec, org)
    assert {(i.norm_id, i.state, i.created_at, i.closed_at) for i in state.instances.values()} == {
        ("X", NormState.VIOLATED, Position(1, 0), Position(3, -1)),
        ("Y", NormState.DETACHED, Position(3, -1), None),
    }
