"""Seeded input generators for the three benchmark workloads.

Each generator is a pure function of (seed, size): the same arguments give
byte-identical inputs. The program under test only ever receives what these
return: scenario and network-config documents for ``compacts run``, a chain
for ``compacts eval``, and a list of blocks for the live monitor.
"""

from __future__ import annotations

import hashlib
import random

from compacts import ledger

DEMO_TARGET = int("04" + "00" * 31, 16)  # the target of demos/hospital_net.json
EASY_TARGET = 1 << 256  # every header hash qualifies; nonce 0 always wins
PEERS = ("peer-1", "peer-2", "peer-3")


def _secret(seed: int, principal: str) -> str:
    return hashlib.sha256(f"{seed}:{principal}".encode()).hexdigest()[:16]


def _net_config(seed: int, roles: dict[str, list[str]], target: int, max_rounds: int) -> dict:
    """A network-config document in the format fileformats.read_network_config reads."""
    return {
        "principals": [{"id": pid, "secret": _secret(seed, pid)} for pid in sorted(roles)],
        "peers": list(PEERS),
        "target": f"{target:064x}",
        "gossip_seed": seed,
        "max_rounds": max_rounds,
        "roles": {pid: roles[pid] for pid in sorted(roles)},
    }


def _signed(seed: int, index: int, event_type: str, attributes: dict, emitter: str) -> ledger.Event:
    return ledger.Event.make(
        event_id=f"evt-{index:05d}",
        event_type=event_type,
        attributes=attributes,
        emitter=emitter,
        logical_ts=index,
    ).with_signature(_secret(seed, emitter))


def _mine(events_by_block: list[list[ledger.Event]], target: int, miner: str) -> list[ledger.Block]:
    """Mine one block per entry (empty entries give empty blocks) on genesis."""
    blocks = []
    prev = ledger.GENESIS_HEADER
    for events in events_by_block:
        header = ledger.mine_block(tuple(events), prev, target, miner=miner)
        blocks.append(ledger.Block(header=header, events=tuple(events)))
        prev = header
    return blocks


def _bucket(timed: list[tuple[int, int, ledger.Event]], per_block: int, blocks: int) -> list[list[ledger.Event]]:
    """Place (wanted block, order, event) triples into blocks in order.

    A block holds at most per_block events; overflow moves to the next
    block, so a stream's events keep their relative order.
    """
    out: list[list[ledger.Event]] = [[]]
    for wanted, _, event in sorted(timed, key=lambda t: (t[0], t[1])):
        while len(out) <= wanted:
            out.append([])
        while len(out[wanted]) >= per_block:
            wanted += 1
            if len(out) <= wanted:
                out.append([])
        out[wanted].append(event)
    while len(out) < blocks:
        out.append([])
    return out[1:]  # index 0 stands for genesis


# --- hospital-run -----------------------------------------------------------

HOSPITAL_NURSES = ("nurse-a", "nurse-b", "nurse-c", "nurse-d")


def hospital_inputs(seed: int, patients: int) -> tuple[list[dict], dict]:
    """Scenario lines and network config for ``compacts run`` on hospital.cpt.

    40% of the patients take Admit, Share, Complaint, InvestigationReport
    (P1 violated, C1 created, detached and satisfied); the rest take Admit,
    Consent, Share, Discharge (the exemption covers the Share, P1 closes).
    Two patients start per round, and each step is two rounds after the last,
    so the load per round is the same at every size and seed.
    """
    rng = random.Random(seed)
    ids = [f"patient-{i:03d}" for i in range(patients)]
    violators = set(rng.sample(ids, (patients * 2) // 5))
    roles = {"hospital": ["Hospital"]}
    roles.update({nurse: ["Nurse"] for nurse in HOSPITAL_NURSES})
    roles.update({pid: ["Patient"] for pid in ids})
    lines = []
    for order, pid in enumerate(ids):
        nurse = rng.choice(HOSPITAL_NURSES)
        start = order // 2
        if pid in violators:
            steps = [
                ("Admit", {"patient": pid, "nurse": nurse}, "hospital"),
                ("Share", {"patient": pid, "sharer": nurse}, nurse),
                ("Complaint", {"patient": pid}, pid),
                (
                    "InvestigationReport",
                    {"report": f"inv-{pid}", "patient": pid, "nurse": nurse, "verdict": "upheld"},
                    "hospital",
                ),
            ]
        else:
            steps = [
                ("Admit", {"patient": pid, "nurse": nurse}, "hospital"),
                ("Consent", {"patient": pid}, pid),
                ("Share", {"patient": pid, "sharer": nurse}, nurse),
                ("Discharge", {"patient": pid}, "hospital"),
            ]
        for step, (event_type, attributes, emitter) in enumerate(steps):
            round_no = start + 2 * step
            lines.append(
                {
                    "round": round_no,
                    "event_type": event_type,
                    "attributes": attributes,
                    "emitter": emitter,
                    "logical_ts": round_no,
                }
            )
    lines.sort(key=lambda line: line["round"])
    last_round = max(line["round"] for line in lines)
    return lines, _net_config(seed, roles, DEMO_TARGET, last_round + 40)


# --- datatrust-eval ---------------------------------------------------------

DATATRUST_ANALYSTS = ("analyst-a", "analyst-b", "analyst-c", "analyst-d")


def datatrust_inputs(seed: int, subjects: int) -> tuple[list[ledger.Block], dict]:
    """A chain mined at EASY_TARGET plus a config carrying the role map.

    Three in four subjects are exported without consent (NoExport violated,
    Redress created, audited and remedied); the others opt in or declare an
    emergency first, the two sides of the exemption's ``or``. Every subject is
    purged at the end. Streams start staggered and interleave, about three
    events per block.
    """
    rng = random.Random(seed)
    ids = [f"subject-{i:03d}" for i in range(subjects)]
    violators = set(rng.sample(ids, (subjects * 3) // 4))
    roles = {"steward": ["Steward"]}
    roles.update({analyst: ["Analyst"] for analyst in DATATRUST_ANALYSTS})
    roles.update({pid: ["Subject"] for pid in ids})
    timed = []
    index = 0
    span = (subjects * 3) // 2
    for order, pid in enumerate(ids):
        analyst = rng.choice(DATATRUST_ANALYSTS)
        steps = [
            ("Enroll", {"person": pid, "cohort": rng.choice(("c1", "c2", "c3"))}, "steward"),
            ("Grant", {"person": pid, "analyst": analyst}, "steward"),
        ]
        if pid not in violators:
            if rng.random() < 0.5:
                steps.append(("OptIn", {"person": pid, "scope": "research"}, pid))
            else:
                steps.append(("Emergency", {"person": pid}, "steward"))
        steps.append(("Export", {"person": pid, "analyst": analyst}, analyst))
        if pid in violators:
            steps.append(("Audit", {"case": f"audit-{pid}", "person": pid}, "steward"))
            steps.append(("Remedy", {"case": f"remedy-{pid}", "person": pid}, "steward"))
        steps.append(("Purge", {"person": pid}, pid))
        block = 1 + (order * span) // subjects + rng.randrange(3)
        for event_type, attributes, emitter in steps:
            timed.append((block, order, _signed(seed, index, event_type, attributes, emitter)))
            index += 1
            block += rng.randint(1, 3)
    blocks = _mine(_bucket(timed, per_block=6, blocks=0), EASY_TARGET, miner="peer-1")
    return blocks, _net_config(seed, roles, EASY_TARGET, 40)


# --- peerreview-monitor -----------------------------------------------------

REVIEW_EDITORS = ("editor-a", "editor-b")
REVIEW_REVIEWERS = ("reviewer-a", "reviewer-b", "reviewer-c")


def peerreview_inputs(seed: int, papers: int) -> tuple[list[ledger.Block], dict]:
    """Blocks mined at DEMO_TARGET, 0 to 2 events each, and the network config.

    Per paper: Submit, Review, then Decide. Two in five are accepted and
    published (Accepted counts-as fact, Publication chained on a satisfied
    Decision); two in five are rejected; one in ten is accepted but never
    published and one in ten never decided, so their deadlines lapse at later,
    often empty, blocks.
    """
    rng = random.Random(seed)
    ids = [f"paper-{i:03d}" for i in range(papers)]
    fates = ["publish"] * (papers * 2 // 5) + ["reject"] * (papers * 2 // 5)
    fates += ["accept-only"] * ((papers - len(fates)) // 2)
    fates += ["undecided"] * (papers - len(fates))
    rng.shuffle(fates)
    authors = [f"author-{i:02d}" for i in range(max(1, papers // 4))]
    roles = {editor: ["Editor"] for editor in REVIEW_EDITORS}
    roles.update({reviewer: ["Reviewer"] for reviewer in REVIEW_REVIEWERS})
    roles.update({author: ["Author"] for author in authors})
    timed = []
    index = 0
    span = (papers * 5) // 2
    for order, (paper, fate) in enumerate(zip(ids, fates)):
        author = rng.choice(authors)
        editor = rng.choice(REVIEW_EDITORS)
        steps = [
            ("Submit", {"paper": paper, "author": author}, author),
            (
                "Review",
                {"review": f"rev-{paper}", "paper": paper, "recommendation": rng.choice(("accept", "revise"))},
                rng.choice(REVIEW_REVIEWERS),
            ),
        ]
        if fate != "undecided":
            outcome = "reject" if fate == "reject" else "accept"
            steps.append(("Decide", {"decision": f"dec-{paper}", "paper": paper, "outcome": outcome}, editor))
        if fate == "publish":
            steps.append(("Publish", {"publication": f"pub-{paper}", "paper": paper}, editor))
        block = 1 + (order * span) // papers
        for event_type, attributes, emitter in steps:
            timed.append((block, order, _signed(seed, index, event_type, attributes, emitter)))
            index += 1
            block += rng.randint(1, 8)
    blocks = _mine(
        _bucket(timed, per_block=2, blocks=(papers * 27) // 8), DEMO_TARGET, miner="peer-1"
    )
    return blocks, _net_config(seed, roles, DEMO_TARGET, 40)
