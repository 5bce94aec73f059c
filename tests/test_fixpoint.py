"""The lifecycle fixpoint's termination rule against a reference rule.

The batch and incremental engines share _Run, so their differential test
cannot see a fault in when the fixpoint stops. Here evaluate is compared with
a _Run whose fixpoint follows a more conservative rule: repeat until a pass
changes neither the instance table nor the fact count.
"""

import pytest

from compacts.evaluator import _Run, evaluate

from conftest import build_chain, hospital_events
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
        frontier = run.process_block(block)
    return run.freeze(frontier)


@pytest.mark.parametrize("seed", range(200))
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


@pytest.mark.parametrize("blocks, passes", [(1, 3), (4, 12)])
def test_a_pass_that_adds_no_fact_ends_the_fixpoint(
    blocks, passes, hospital_spec, hospital_org, monkeypatch
):
    """Genesis, each block boundary and each event take one pass, plus one
    more for each pass that added a fact."""
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
