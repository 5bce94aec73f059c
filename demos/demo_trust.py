#!/usr/bin/env python3
"""Trust evolution: the Beta-mean score after a mixed history of outcomes.

Builds one chain in which nurse Bob is admitted to four patients, shares
twice with consent and twice without, and prints the score trajectory: the
trust report of each chain prefix, recomputed from the evaluated state.

Run from the repository root:  python demos/demo_trust.py
"""

from pathlib import Path

from compacts.evaluator import evaluate
from compacts.governance import Organization
from compacts.lang import parse_compact
from compacts.ledger import Block, Event, genesis_chain, mine_block
from compacts.trust import TrustScore, trust_report

HERE = Path(__file__).parent
ROSTER = {"hospital": "h", "bob": "b", "p1": "1", "p2": "2", "p3": "3", "p4": "4"}
TARGET = 1 << 255


def main():
    spec = parse_compact((HERE / "hospital.cpt").read_text())
    org = Organization.make("hospital", {
        "hospital": ["Hospital"], "bob": ["Nurse"],
        "p1": ["Patient"], "p2": ["Patient"], "p3": ["Patient"], "p4": ["Patient"],
    })

    counter = iter(range(1000))

    def ev(event_type, attributes, emitter):
        return Event.make(f"e{next(counter)}", event_type, attributes, emitter) \
                    .with_signature(ROSTER[emitter])

    episodes = []
    for patient, consented in (("p1", True), ("p2", False), ("p3", True), ("p4", False)):
        episode = [ev("Admit", {"patient": patient, "nurse": "bob"}, "hospital")]
        if consented:
            episode.append(ev("Consent", {"patient": patient}, patient))
        episode.append(ev("Share", {"patient": patient, "sharer": "bob"}, "bob"))
        episode.append(ev("Discharge", {"patient": patient}, "hospital"))
        episodes.append(tuple(episode))

    chain = genesis_chain()
    previous = TrustScore("bob", "P1", 0, 0)
    print("episode  outcome    bob/P1 score")
    for number, events in enumerate(episodes, start=1):
        header = mine_block(events, chain.tip.header, TARGET, miner="peer-1")
        chain = chain.extend(Block(header=header, events=events))
        state = evaluate(chain, spec, org)
        (row,) = [r for r in trust_report(state) if (r.principal, r.norm_id) == ("bob", "P1")]
        if row.violated > previous.violated:
            outcome = "violated"
        elif row.satisfied > previous.satisfied:
            outcome = "satisfied"
        else:
            outcome = "pending"
        previous = row
        print(f"{number:>7}  {outcome:<9}  ({row.satisfied}+1)/({row.satisfied}+{row.violated}+2) = {row.score:.6f}")

    print("\nfull-table view (trust_report over the final state):")
    for row in trust_report(state):
        print(f"  {row.principal}/{row.norm_id}: s={row.satisfied} v={row.violated} score={row.score:.6f}")


if __name__ == "__main__":
    main()
