"""Deterministic multi-peer network simulation with longest-chain consensus.

Rounds advance in lockstep. Each round every peer, in id order, drains its
inbox (delivery order drawn from the seeded generator), adopts a received
chain that beats its own (longest, ties to the smallest tip digest) if it
verifies, mines at most one block of every pending event admission lets in
(passes repeat until one lets none in), and broadcasts what it adopted for
delivery next round. Messages are the events and chains themselves. The
caller's events, whose ids it chooses and must keep unique, are signed with
their emitters' roster secrets and enter at a generator-chosen peer at their
round; a round with nothing in flight or due is skipped. A peer holds the
memo's verified Chain, the one holder of its admission index; each memo
chain keeps its own copy. Identical inputs give bit-identical results.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .governance import Organization, UnrosteredEmitter
from .ledger import (
    Block,
    Chain,
    Event,
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
class NetworkResult:
    chains: tuple[tuple[str, Chain], ...]  # per peer, in peer-id order
    converged: bool
    rounds_used: int

    @property
    def active_chain(self) -> Chain:
        return select_active_chain([chain for _, chain in self.chains])


class _Peer:
    def __init__(self):
        self.chain = genesis_chain()  # after an adoption, the memo's verified chain
        self.seen: dict[str, Event] = {}  # event_id -> event, arrival order


def _admissible(seen: Iterable[Event], index: LedgerIndex, roles_of) -> list[Event]:
    """The seen events that may extend the chain whose index is given, under
    the index's rules: of those not on the chain, passes over the ones not
    yet chosen take, in order, those admission lets in, until one takes none."""
    events = [e for e in seen if e.event_id not in index.event_ids]
    rules = index.rules
    if rules is None:
        return events
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
    scenario: Sequence[tuple[int, Event]],
    config: NetworkConfig,
    rules: Optional[IntegrityRuleSet] = None,
    org: Optional[Organization] = None,
) -> NetworkResult:
    """Simulate gossip, mining and longest-chain adoption over max_rounds.

    Each (round, event) pair is signed with its emitter's roster secret
    (UnrosteredEmitter if it has none) and submitted at its round. Event ids
    come from the caller: a repeat, which gossip would drop in silence, is a
    ValueError. Stops early once every peer has the same tip, nothing is in
    flight and no event is due later; a peer that mined took every event it
    could admit, so none is left waiting. A round that ends with nothing in
    flight is followed by the next round an event is due, as no peer can
    change before then. Converged means one tip and every event's round in
    0..max_rounds-1. A block is verified once, when it is mined; a received
    chain is verified only when the peer would adopt it, and then only past
    its newest verified block (see verify_chain's memo); the peer then holds
    the memo's chain, with its own index. Every chain returned passed
    verify_chain under config.target, the roster, rules and roles_of.
    """
    roster = config.roster
    roles_of = org.roles_of if org is not None else None
    if len({event.event_id for _, event in scenario}) < len(scenario):
        raise ValueError("scenario event ids must be unique")
    due: dict[int, list[Event]] = {}
    for round_no, event in scenario:
        secret = roster.get(event.emitter)
        if secret is None:
            raise UnrosteredEmitter(event.emitter)
        due.setdefault(round_no, []).append(event.with_signature(secret))
    last_due = max(due, default=-1)
    stops = sorted({*due, config.max_rounds})  # the rounds an idle network skips to
    rng = random.Random(config.gossip_seed)
    peer_ids = sorted(config.peers)
    peers = {pid: _Peer() for pid in peer_ids}
    memo: dict = {}

    def adopt(peer: _Peer, chain: Chain) -> bool:
        """Switch peer to chain if it passes verification."""
        if verify_chain(
            chain, target=config.target, roster=roster, rules=rules, roles_of=roles_of, memo=memo
        ) is not None:
            return False  # invalid chains are dropped
        peer.chain = memo[chain.tip_digest()]  # holds its admission index
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

            mineable = _admissible(peer.seen.values(), peer.chain.admission_index(rules), roles_of)
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
