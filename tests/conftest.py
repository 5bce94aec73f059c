from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from compacts.governance import Organization
from compacts.lang import parse_compact
from compacts.ledger import Block, Chain, Event, genesis_chain, mine_block
from compacts.validator import LedgerIndex

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

EASY_TARGET = 1 << 256  # every hash qualifies; nonce 0 always wins

HOSPITAL_ROSTER = {
    "hospital": "ward-7-master",
    "bob": "nurse-bob-key",
    "charlie": "patient-charlie-key",
    "alice": "cardio-alice-key",
}

HOSPITAL_ROLES = {
    "hospital": ["Hospital"],
    "bob": ["Nurse"],
    "charlie": ["Patient"],
    "alice": ["Nurse"],
}


def count_index_builds(monkeypatch) -> list:
    """Records, from now on, the number of events each LedgerIndex is built from,
    for each one built from a non-empty sequence: a rebuild, not a fresh index."""
    built = []
    real_init = LedgerIndex.__init__

    def counting_init(index, rules, events=()):
        events = list(events)
        if events:
            built.append(len(events))
        real_init(index, rules, events)

    monkeypatch.setattr(LedgerIndex, "__init__", counting_init)
    return built


def chained_norms(count: int, reverse: bool = False) -> str:
    """A well-formed compact of count commitments in which N0 is created on
    an event and each later N{i} when N{i-1} is satisfied, declared in order
    or in reverse."""
    norms = [
        f"  commitment N{i} subject R object S {{ create on {f'satisfied N{i - 1}(k)' if i else 'E(k)'};"
        " consequent E(k) within 5 blocks; }"
        for i in range(count)
    ]
    head = "compact Chain context org {\n  roles R, S;\n  schema E(k: text key);\n  channel c members R, S carries E;\n"
    return head + "\n".join(norms[::-1] if reverse else norms) + "\n}\n"


def cli_argv(fmt: str, path, out) -> list[str]:
    """The compacts command that reads a file of one input format at path;
    a command that writes a report writes it to out."""
    spec, net = str(DEMOS / "hospital.cpt"), str(DEMOS / "hospital_net.json")
    scenario = str(DEMOS / "hospital_compliant.jsonl")
    if fmt == "cpt":
        return ["parse", str(path)]
    if fmt == "scenario":
        return ["run", "--spec", spec, "--scenario", str(path), "--net", net, "--out", str(out)]
    if fmt == "net":
        return ["run", "--spec", spec, "--scenario", scenario, "--net", str(path), "--out", str(out)]
    if fmt == "snapshot":
        return ["verify-chain", str(path)]
    if fmt == "report":
        return ["trust", "--report", str(path)]
    raise ValueError(fmt)


def bench_generators():
    """The benchmark's input generators, bench/generators.py."""
    spec = importlib.util.spec_from_file_location("bench_generators", REPO / "bench" / "generators.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_fixture(name: str) -> dict:
    with open(FIXTURES / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def signed_event(event_id, event_type, attributes, emitter, roster, logical_ts=0) -> Event:
    return Event.make(event_id, event_type, attributes, emitter, logical_ts).with_signature(
        roster[emitter]
    )


def build_chain(event_groups, target=EASY_TARGET, miner="peer-1") -> Chain:
    """Mine one block per group (a group may be empty)."""
    chain = genesis_chain()
    for events in event_groups:
        header = mine_block(tuple(events), chain.tip.header, target, miner)
        chain = chain.extend(Block(header=header, events=tuple(events)))
    return chain


@pytest.fixture(scope="session")
def hospital_spec():
    return parse_compact((DEMOS / "hospital.cpt").read_text())


@pytest.fixture(scope="session")
def hospital_org():
    return Organization.make("hospital", HOSPITAL_ROLES)


@pytest.fixture(scope="session")
def tumor_spec():
    return parse_compact((DEMOS / "tumorboard.cpt").read_text())


def hospital_events(roster=HOSPITAL_ROSTER):
    """Factory for the healthcare narrative's event groups."""

    def ev(i, event_type, attributes, emitter):
        return signed_event(f"e{i}", event_type, attributes, emitter, roster, logical_ts=i)

    violation = [
        [ev(0, "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital")],
        [ev(1, "Share", {"patient": "charlie", "sharer": "bob"}, "bob")],
        [ev(2, "Complaint", {"patient": "charlie"}, "charlie")],
        [ev(3, "InvestigationReport",
            {"report": "inv-001", "patient": "charlie", "nurse": "bob", "verdict": "excused"},
            "hospital")],
    ]
    compliant = [
        [ev(0, "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital")],
        [ev(1, "Consent", {"patient": "charlie"}, "charlie")],
        [ev(2, "Share", {"patient": "charlie", "sharer": "bob"}, "bob")],
        [ev(3, "Discharge", {"patient": "charlie"}, "hospital")],
    ]
    return violation, compliant
