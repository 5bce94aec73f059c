"""Deterministic multi-peer network simulation with longest-chain consensus.

Rounds advance in lockstep. Each round every peer, in id order, drains its
inbox (delivery order drawn from the seeded generator), verifies what it
received, adopts the best known chain (longest, ties to the smallest tip
digest), mines at most one block of every pending event admission lets in
(passes repeat until one lets none in), and broadcasts chain updates for
delivery next round. Client submissions enter at a generator-chosen peer on
their scheduled round and are gossiped onward. Identical inputs give
bit-identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .governance import Organization, UnrosteredEmitter
from .ledger import (
    Block,
    Chain,
    Event,
    Scalar,
    genesis_chain,
    mine_block,
    select_active_chain,
    verify_chain,
    verify_event_signature,
)
from .validator import IntegrityRuleSet, LedgerIndex, check_integrity, validate_event_schema


@dataclass(frozen=True)
class NetworkConfig:
    principals: tuple[tuple[str, str], ...]  # (principal id, secret)
    peers: tuple[str, ...]
    target: int
    gossip_seed: int
    max_rounds: int

    @property
    def roster(self) -> dict[str, str]:
        return dict(self.principals)


@dataclass(frozen=True)
class Submission:
    """One scenario line: an event to submit at a given round."""

    round: int
    event_type: str
    attributes: tuple[tuple[str, Scalar], ...]
    emitter: str
    logical_ts: int = 0

    @staticmethod
    def make(
        round: int,
        event_type: str,
        attributes: Mapping[str, Scalar],
        emitter: str,
        logical_ts: int = 0,
    ) -> "Submission":
        return Submission(
            round=round,
            event_type=event_type,
            attributes=tuple(sorted(attributes.items())),
            emitter=emitter,
            logical_ts=logical_ts,
        )


@dataclass(frozen=True)
class NetworkResult:
    chains: tuple[tuple[str, Chain], ...]  # per peer, in peer-id order
    converged: bool
    rounds_used: int

    @property
    def active_chain(self) -> Chain:
        return select_active_chain([chain for _, chain in self.chains])


def events_from_scenario(
    scenario: Sequence[Submission], roster: Mapping[str, str]
) -> list[tuple[int, Event]]:
    """Signed events for each submission; ids are assigned by position."""
    out = []
    for index, sub in enumerate(scenario):
        secret = roster.get(sub.emitter)
        if secret is None:
            raise UnrosteredEmitter(sub.emitter)
        event = Event.make(
            event_id=f"evt-{index:05d}",
            event_type=sub.event_type,
            attributes=dict(sub.attributes),
            emitter=sub.emitter,
            logical_ts=sub.logical_ts,
        ).with_signature(secret)
        out.append((sub.round, event))
    return out


class _Peer:
    def __init__(self, rules: Optional[IntegrityRuleSet]):
        self.chain = genesis_chain()
        self.index = LedgerIndex(rules)  # admission state of self.chain
        self.seen: dict[str, Event] = {}  # event_id -> event, arrival order

    def adopt(self, chain: Chain, memo: dict) -> None:
        """Switch to a chain verify_chain has stored in memo."""
        self.chain = chain
        self.index = memo[chain.tip_digest()][1]

    def pending(self) -> list[Event]:
        return [e for e in self.seen.values() if e.event_id not in self.index.event_ids]


def _admissible(events: list[Event], index: LedgerIndex, roles_of) -> list[Event]:
    """The events that may extend the chain whose index is given, under the
    index's rules: passes over the events not yet chosen take, in order,
    those admission lets in, until one takes none."""
    rules = index.rules
    if rules is None or not events:
        return list(events)
    index = index.copy()
    chosen: list[Event] = []
    rest = [e for e in events if not validate_event_schema(e, rules, roles_of)]
    while rest:
        refused = []
        for event in rest:
            if check_integrity(event, index):
                refused.append(event)
            else:
                chosen.append(event)
                index.add(event)
        rest = refused if len(refused) < len(rest) else []
    return chosen


def run_network(
    scenario: Sequence[Submission],
    config: NetworkConfig,
    rules: Optional[IntegrityRuleSet] = None,
    org: Optional[Organization] = None,
) -> NetworkResult:
    """Simulate gossip, mining and longest-chain adoption over max_rounds.

    Stops early once every peer has the same tip, nothing is in flight and no
    submission is due later; a peer that mined took every event it could
    admit, so none is left waiting. Converged means one tip and every
    submission round in 0..max_rounds-1. A block is verified once, when it is
    mined, and a gossiped chain only past its newest verified block (see
    verify_chain's memo). Every chain returned passed verify_chain under
    config.target, the roster, rules and roles_of.
    """
    roster = config.roster
    roles_of = org.roles_of if org is not None else None
    submissions = events_from_scenario(scenario, roster)
    rng = random.Random(config.gossip_seed)
    peer_ids = sorted(config.peers)
    peers = {pid: _Peer(rules) for pid in peer_ids}
    memo: dict = {}

    def sound(chain: Chain) -> bool:
        return verify_chain(
            chain, target=config.target, roster=roster, rules=rules, roles_of=roles_of, memo=memo
        ) is None

    # inbox[peer] holds (kind, payload) pairs deliverable this round
    inbox: dict[str, list[tuple[str, object]]] = {pid: [] for pid in peer_ids}
    next_inbox: dict[str, list[tuple[str, object]]] = {pid: [] for pid in peer_ids}

    def broadcast(sender: str, kind: str, payload: object) -> None:
        for pid in peer_ids:
            if pid != sender:
                next_inbox[pid].append((kind, payload))

    rounds_used = 0
    for round_no in range(config.max_rounds):
        rounds_used = round_no + 1
        for scheduled_round, event in submissions:
            if scheduled_round == round_no:
                entry = peer_ids[rng.randrange(len(peer_ids))]
                inbox[entry].append(("event", event))

        for pid in peer_ids:
            peer = peers[pid]
            messages = inbox[pid]
            inbox[pid] = []
            rng.shuffle(messages)
            for kind, payload in messages:
                if kind == "event":
                    event = payload
                    if event.event_id in peer.seen:
                        continue
                    secret = roster.get(event.emitter)
                    if secret is None or not verify_event_signature(event, secret):
                        continue
                    peer.seen[event.event_id] = event
                    broadcast(pid, "event", event)
                else:
                    candidate = payload
                    if not sound(candidate):
                        continue  # invalid chains are dropped
                    best = select_active_chain([peer.chain, candidate])
                    if best.tip_digest() != peer.chain.tip_digest():
                        peer.adopt(best, memo)
                        for _, event in best.events_in_order():
                            peer.seen.setdefault(event.event_id, event)
                        broadcast(pid, "chain", best)

            mineable = _admissible(peer.pending(), peer.index, roles_of)
            if mineable:
                header = mine_block(
                    tuple(mineable), peer.chain.tip.header, config.target, miner=pid
                )
                mined = peer.chain.extend(Block(header=header, events=tuple(mineable)))
                if sound(mined):  # verifies the new block once, for every peer
                    peer.adopt(mined, memo)
                    broadcast(pid, "chain", mined)

        inbox, next_inbox = next_inbox, {pid: [] for pid in peer_ids}

        tips = {peers[pid].chain.tip_digest() for pid in peer_ids}
        in_flight = any(inbox[pid] for pid in peer_ids)
        waiting = any(r > round_no for r, _ in submissions)
        if len(tips) == 1 and not in_flight and not waiting:
            break

    tips = {peers[pid].chain.tip_digest() for pid in peer_ids}
    converged = len(tips) == 1 and all(0 <= r < config.max_rounds for r, _ in submissions)
    return NetworkResult(
        chains=tuple((pid, peers[pid].chain) for pid in peer_ids),
        converged=converged,
        rounds_used=rounds_used,
    )
