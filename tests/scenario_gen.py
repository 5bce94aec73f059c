"""Seeded random cases for the evaluator sweeps: a small compact (up to three
norms over a fixed schema alphabet), a role map, and a chain of random events
grouped into blocks (some empty, so deadline and expiry lapses fire)."""

from __future__ import annotations

import random

from compacts.governance import Organization
from compacts.lang import parse_compact
from compacts.ledger import Block, Chain, Event, genesis_chain, mine_block

EASY_TARGET = 1 << 256

_HEADER = """compact Case{seed} context org0 {{

  roles Actor, Counter;

  schema A(x: text key);
  schema B(x: text key, tag: text out);
  schema C(x: text key);
  schema D(x: text key);
  schema E(x: text key);

  channel main members Actor, Counter carries A, B, C, D, E;
"""

_COUNTS_AS = '\n  counts-as F(x) from B(x, tag: "f") by Actor;\n'

_PRINCIPALS = ("p1", "p2", "p3")
_VALUES = ("v1", "v2", "v3")


def _prohibition(rng: random.Random, norm_id: str) -> str:
    unless = "    unless C(x) before B(x);\n" if rng.random() < 0.6 else ""
    return (
        f"\n  prohibition {norm_id} subject Actor: x object Counter {{\n"
        f"    create on A(x);\n"
        f"    forbids B(x);\n"
        f"{unless}"
        f"    until D(x);\n"
        f"  }}\n"
    )


def _commitment(rng: random.Random, norm_id: str, with_fact: bool, earlier: list[str]) -> str:
    creates = ["A(x)"]
    if with_fact:
        creates.append("fact F(x)")
    if earlier and rng.random() < 0.5:
        creates.append(f"violated {rng.choice(earlier)}(x)")
    create = rng.choice(creates)
    antecedents = [None, "C(x)", "C(x) before D(x)"]
    if with_fact:
        antecedents.append("fact F(x)")
    antecedent = rng.choice(antecedents)
    consequent = rng.choice(["D(x)", "D(x) or E(x)", "D(x) and E(x)"])
    deadline = rng.randint(1, 4)
    lines = [
        f"\n  commitment {norm_id} subject Actor: x object Counter {{\n",
        f"    create on {create};\n",
    ]
    if antecedent:
        lines.append(f"    antecedent {antecedent};\n")
    lines.append(f"    consequent {consequent} within {deadline} blocks;\n")
    if rng.random() < 0.5:
        lines.append(f"    expires after {rng.randint(1, 5)} blocks;\n")
    lines.append("  }\n")
    return "".join(lines)


def random_case(seed: int, max_events: int = 50, min_events: int = 1, values: int = 3):
    """Returns (spec, org, chain, roster) for one seeded case: between
    min_events and max_events events whose x takes one of `values` values."""
    rng = random.Random(seed)
    pool = tuple(f"v{i}" for i in range(1, values + 1))
    with_fact = rng.random() < 0.5
    text = _HEADER.format(seed=seed)
    if with_fact:
        text += _COUNTS_AS
    norm_count = rng.randint(1, 3)
    norm_ids: list[str] = []
    for i in range(norm_count):
        norm_id = f"N{i + 1}"
        if rng.random() < 0.5:
            text += _prohibition(rng, norm_id)
        else:
            text += _commitment(rng, norm_id, with_fact, norm_ids)
        norm_ids.append(norm_id)
    text += "}\n"
    spec = parse_compact(text)

    members = {}
    for pid in _PRINCIPALS:
        roles = []
        if rng.random() < 0.7:
            roles.append("Actor")
        if rng.random() < 0.3:
            roles.append("Counter")
        members[pid] = roles
    org = Organization.make("org0", members)
    roster = {pid: f"secret-{pid}" for pid in _PRINCIPALS}

    events = []
    for i in range(rng.randint(min_events, max_events)):
        event_type = rng.choice("ABCDE")
        attributes = {"x": rng.choice(pool)}
        if event_type == "B":
            attributes["tag"] = rng.choice(("f", "g"))
        emitter = rng.choice(_PRINCIPALS)
        events.append(
            Event.make(f"evt-{seed}-{i:04d}", event_type, attributes, emitter, i)
            .with_signature(roster[emitter])
        )

    chain = genesis_chain()
    remaining = list(events)
    while remaining:
        size = rng.randint(0, 4)
        batch, remaining = tuple(remaining[:size]), remaining[size:]
        header = mine_block(batch, chain.tip.header, EASY_TARGET, miner="peer-1")
        chain = chain.extend(Block(header=header, events=batch))
    return spec, org, chain, roster


def extend_randomly(chain: Chain, seed: int, blocks: int = 3, roster=None) -> Chain:
    """Append random valid blocks (reusing the case's schema alphabet)."""
    rng = random.Random(seed)
    roster = roster or {pid: f"secret-{pid}" for pid in _PRINCIPALS}
    serial = 0
    for _ in range(blocks):
        events = []
        for _ in range(rng.randint(0, 3)):
            event_type = rng.choice("ABCDE")
            attributes = {"x": rng.choice(_VALUES)}
            if event_type == "B":
                attributes["tag"] = rng.choice(("f", "g"))
            emitter = rng.choice(_PRINCIPALS)
            events.append(
                Event.make(f"ext-{seed}-{serial:04d}", event_type, attributes, emitter)
                .with_signature(roster[emitter])
            )
            serial += 1
        header = mine_block(tuple(events), chain.tip.header, EASY_TARGET, miner="peer-2")
        chain = chain.extend(Block(header=header, events=tuple(events)))
    return chain
