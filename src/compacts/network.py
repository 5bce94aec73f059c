"""Deterministic multi-peer network simulation with longest-chain consensus.

A peer (_Peer) holds its chain and the events it has seen. receive(message)
takes an event, recorded if its signature checks, or a chain, adopted if it
beats the peer's own (longest, ties to the smallest tip digest) and
verifies, and says whether to forward it. turn() mines one block of every
seen event admission lets in and returns what to send; its admission is the
block's (see turn). Each round every peer, in id order, receives its inbox
(in an order drawn from the seeded generator) and takes its turn; what it
forwards and sends reaches every other peer next round. Identical inputs
give bit-identical results.
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


def _admissible(events: Iterable[Event], index: LedgerIndex, roles_of) -> tuple[tuple[Event, ...], LedgerIndex]:
    """Of events not on the chain whose index is given, those admission lets in:
    passes over the ones not yet chosen take, in order, those it admits, until
    one takes none. Returns them and the index holding them, a copy if any."""
    rules = index.rules
    chosen: list[Event] = []
    rest = [e for e in events if rules is None or not validate_event_schema(e, rules, roles_of)]
    while rest:
        refused = []
        for event in rest:
            if rules is not None and check_integrity(event, index):
                refused.append(event)
                continue
            if not chosen:
                index = index.copy()
            chosen.append(event)
            index.add(event)
        rest = refused if len(refused) < len(rest) else []
    return tuple(chosen), index


class _Peer:
    """A peer, verifying under its run's target, roster, rules, roles_of and
    verify memo. A test substitutes a subclass by patching network._Peer."""

    def __init__(self, pid: str, target: int, roster: dict, rules, roles_of, memo: dict):
        self.pid, self.target, self.roster = pid, target, roster
        self.rules, self.roles_of, self.memo = rules, roles_of, memo
        self.chain = genesis_chain()  # then a memo chain: one it verified or one it mined
        self.seen: dict[str, Event] = {}  # event_id -> event, arrival order
        self.refused = None  # (tip digest, pending ids) of the last turn that mined nothing

    def receive(self, message) -> bool:
        """Take one event or chain; returns whether to forward it."""
        if isinstance(message, Chain):
            old = self.chain.blocks
            # a tie keeps the peer's own chain, which it may be sent back
            if select_active_chain([self.chain, message]) is self.chain:
                return False
            if verify_chain(message, target=self.target, roster=self.roster, rules=self.rules,
                            roles_of=self.roles_of, memo=self.memo) is not None:
                return False  # invalid chains are dropped
            self.chain = self.memo[message.tip_digest()]  # holds its admission index
            # exact: an honest peer has seen every event on its chain, so add those past the fork
            fork = next(h for h in range(len(old) - 1, -1, -1) if message.blocks[h].header == old[h].header)
            for block in message.blocks[fork + 1:]:
                for event in block.events:
                    self.seen.setdefault(event.event_id, event)
            return True
        if message.event_id in self.seen:
            return False
        secret = self.roster.get(message.emitter)
        if secret is None or not verify_event_signature(message, secret):
            return False
        self.seen[message.event_id] = message
        return True

    def turn(self) -> list:
        """Mine one block of every seen event admission lets in; returns what to
        send. A turn with the tip and pending ids of the last one that mined
        nothing skips admission, which reads only those. The peer built the
        block and does not verify it: the new chain, handed by extend the
        index admission filled, enters the memo under its tip digest as built."""
        chain, index = self.chain, self.chain.admission_index(self.rules)
        pending = [e for e in self.seen.values() if e.event_id not in index.event_ids]
        refusal = (chain.tip_digest(), frozenset(e.event_id for e in pending))
        mineable, index = _admissible(pending, index, self.roles_of) if refusal != self.refused else ((), None)
        if not mineable:
            self.refused = refusal
            return []
        header = mine_block(mineable, chain.tip.header, self.target, miner=self.pid)
        mined = chain.extend(Block(header=header, events=mineable), index)
        self.chain = self.memo[mined.tip_digest()] = mined
        return [mined]


def run_network(
    scenario: Sequence[tuple[int, Event]],
    config: NetworkConfig,
    rules: Optional[IntegrityRuleSet] = None,
    org: Optional[Organization] = None,
) -> NetworkResult:
    """Simulate gossip, mining and longest-chain adoption over max_rounds.

    Each (round, event) pair is signed with its emitter's roster secret
    (UnrosteredEmitter if it has none) and, at its round, put in the inbox of
    a generator-chosen peer; a repeated event id, which receive would drop in
    silence, is a ValueError. Each round every peer receives its shuffled
    inbox and takes its turn. The run stops once every peer has the same tip,
    nothing is in flight and no event is due later: a turn takes every event
    the peer can admit, so none is left waiting. An idle round skips to the
    next one an event is due. Converged means one tip, every event's round in
    0..max_rounds-1, and no event off the tip that admission there lets in.
    A peer verifies what it did not build: a received chain, only to adopt
    it, and only past its newest block in verify_chain's memo, which peers
    share. A chain a peer mines enters the memo as built, handed by
    Chain.extend the index its admission filled (see _Peer.turn), so a
    withheld chain is known there before its release. Every chain returned
    verifies from genesis under config.target, the roster, rules and roles_of.
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
    memo: dict = {}
    peers = {pid: _Peer(pid, config.target, roster, rules, roles_of, memo) for pid in peer_ids}

    def agreed() -> bool:
        return len({peers[pid].chain.tip_digest() for pid in peer_ids}) == 1

    # a message is an Event or a Chain; inbox[peer] holds those deliverable this round
    inbox: dict[str, list] = {pid: [] for pid in peer_ids}
    round_no = 0
    while round_no < config.max_rounds:
        for event in due.get(round_no, ()):
            inbox[peer_ids[rng.randrange(len(peer_ids))]].append(event)
        sent: list[tuple[str, object]] = []  # (sender, message), delivered next round
        for pid, peer in peers.items():  # in id order
            rng.shuffle(inbox[pid])
            sent.extend((pid, message) for message in filter(peer.receive, inbox[pid]))
            sent.extend((pid, message) for message in peer.turn())
        inbox = {pid: [m for sender, m in sent if sender != pid] for pid in peer_ids}
        round_no += 1
        if not any(inbox.values()):
            if round_no > last_due and agreed():
                break
            round_no = stops[bisect_left(stops, round_no)]

    converged = agreed() and all(0 <= r < config.max_rounds for r in due)
    if converged:  # unless the agreed tip left out an event it would admit
        index = peers[peer_ids[0]].chain.admission_index(rules)
        off_tip = [e for events in due.values() for e in events if e.event_id not in index.event_ids]
        converged = not _admissible(off_tip, index, roles_of)[0]
    return NetworkResult(
        chains=tuple((pid, peers[pid].chain) for pid in peer_ids),
        converged=converged,
        rounds_used=round_no,
    )
