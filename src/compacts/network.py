"""Deterministic multi-peer network simulation with longest-chain consensus.

Rounds advance in lockstep. Each round every peer, in id order, drains its
inbox (delivery order drawn from the seeded generator), adopts a received
chain that beats its own (longest, ties to the smallest tip digest) if it
verifies, mines at most one block of every pending event admission lets in
(passes repeat until one lets none in), and broadcasts what it adopted for
delivery next round. Messages are the events and chains themselves. Client
submissions enter at a generator-chosen peer on their scheduled round and
are gossiped onward; rounds in which nothing is in flight or due are
skipped. Identical inputs give bit-identical results.
"""

from __future__ import annotations

import random
from bisect import bisect_left
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

    def pending(self) -> list[Event]:
        return [e for e in self.seen.values() if e.event_id not in self.index.event_ids]


def _admissible(events: list[Event], index: LedgerIndex, roles_of) -> list[Event]:
    """The events that may extend the chain whose index is given, under the
    index's rules: passes over the events not yet chosen take, in order,
    those admission lets in, until one takes none."""
    rules = index.rules
    if rules is None:
        return list(events)
    chosen: list[Event] = []
    rest = [e for e in events if not validate_event_schema(e, rules, roles_of)]
    while rest:
        refused = []
        for event in rest:
            if check_integrity(event, index):
                refused.append(event)
                continue
            if not chosen:
                index = index.copy()  # the caller's index stays the chain's
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
    admit, so none is left waiting. A round that ends with nothing in flight
    is followed by the next round a submission is due, as no peer can change
    before then. Converged means one tip and every submission round in
    0..max_rounds-1. A block is verified once, when it is mined; a received
    chain is verified only when the peer would adopt it, and then only past
    its newest verified block (see verify_chain's memo). Every chain returned
    passed verify_chain under config.target, the roster, rules and roles_of.
    """
    roster = config.roster
    roles_of = org.roles_of if org is not None else None
    due: dict[int, list[Event]] = {}
    for round_no, event in events_from_scenario(scenario, roster):
        due.setdefault(round_no, []).append(event)
    last_due = max(due, default=-1)
    stops = sorted({*due, config.max_rounds})  # the rounds an idle network skips to
    rng = random.Random(config.gossip_seed)
    peer_ids = sorted(config.peers)
    peers = {pid: _Peer(rules) for pid in peer_ids}
    memo: dict = {}

    def adopt(peer: _Peer, chain: Chain) -> bool:
        """Switch peer to chain if it passes verification."""
        if verify_chain(
            chain, target=config.target, roster=roster, rules=rules, roles_of=roles_of, memo=memo
        ) is not None:
            return False  # invalid chains are dropped
        peer.chain, peer.index = chain, memo[chain.tip_digest()][1]
        return True

    def agreed() -> bool:
        return len({peers[pid].chain.tip_digest() for pid in peer_ids}) == 1

    # a message is an Event or a Chain; inbox[peer] holds those deliverable this round
    inbox: dict[str, list] = {pid: [] for pid in peer_ids}
    round_no = 0
    while round_no < config.max_rounds:
        for event in due.get(round_no, ()):
            inbox[peer_ids[rng.randrange(len(peer_ids))]].append(event)
        sent: list[tuple[str, object]] = []  # (sender, message), delivered next round
        for pid in peer_ids:
            peer = peers[pid]
            messages = inbox[pid]
            rng.shuffle(messages)
            for message in messages:
                if isinstance(message, Chain):
                    # a tie keeps the peer's own chain, which it may be sent back
                    if select_active_chain([peer.chain, message]) is peer.chain:
                        continue
                    if not adopt(peer, message):
                        continue
                    for event in message.events():
                        peer.seen.setdefault(event.event_id, event)
                elif message.event_id in peer.seen:
                    continue
                else:
                    secret = roster.get(message.emitter)
                    if secret is None or not verify_event_signature(message, secret):
                        continue
                    peer.seen[message.event_id] = message
                sent.append((pid, message))

            mineable = _admissible(peer.pending(), peer.index, roles_of)
            if mineable:
                header = mine_block(
                    tuple(mineable), peer.chain.tip.header, config.target, miner=pid
                )
                mined = peer.chain.extend(Block(header=header, events=tuple(mineable)))
                if adopt(peer, mined):  # verifies the new block once, for every peer
                    sent.append((pid, mined))

        inbox = {pid: [m for sender, m in sent if sender != pid] for pid in peer_ids}
        round_no += 1
        if not any(inbox.values()):
            if round_no > last_due and agreed():
                break
            round_no = stops[bisect_left(stops, round_no)]

    return NetworkResult(
        chains=tuple((pid, peers[pid].chain) for pid in peer_ids),
        converged=agreed() and all(0 <= r < config.max_rounds for r in due),
        rounds_used=round_no,
    )
