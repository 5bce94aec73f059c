"""Hostile peers for compacts.network, and a run that puts them in.

Each is a subclass of network._Peer that changes one behaviour and keeps the
rest honest. hostile_run substitutes them for one run by patching
compacts.network._Peer with a factory, and logs every message each peer
receives, so a test can tell where an event was injected: the first peer to
receive an event is the one it was injected at, as gossip delivers a round
later.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from compacts import network
from compacts.ledger import Block, Chain, Event, mine_block

Honest = network._Peer


def held(message) -> tuple:
    """The events a message is or holds."""
    return tuple(message.events()) if isinstance(message, Chain) else (message,)


class Censor(Honest):
    """Never mines, and never forwards, a message that is or holds an event
    of the censored type. It still adopts a chain that holds one, but keeps
    no such event among those it would mine after a reorg."""

    censored = "Share"

    def receive(self, message) -> bool:
        events = held(message)
        if all(event.event_type != self.censored for event in events):
            return super().receive(message)
        if isinstance(message, Chain) and super().receive(message):
            for event in events:
                if event.event_type == self.censored:
                    self.seen.pop(event.event_id, None)
        return False


class Withhold(Honest):
    """Mines in private and sends its chain after its k-th turn, then is
    honest. It counts its own turns: an idle round is skipped, not taken."""

    k = 3
    turns = 0
    released = None  # the chain it sent at its k-th turn

    def turn(self) -> list:
        self.turns += 1
        sent = super().turn()
        if self.turns < self.k:
            return []
        if self.turns == self.k:
            self.released = self.chain
            return [self.released]
        return sent


class Equivocate(Honest):
    """Mines two sibling blocks on its tip in one turn and sends both: the
    block an honest peer would mine, and one without its last event."""

    def turn(self) -> list:
        parent = self.chain
        sent = super().turn()
        if sent:
            events = sent[0].tip.events[:-1]
            header = mine_block(events, parent.tip.header, self.target, miner=self.pid)
            sent.append(parent.extend(Block(header=header, events=events)))
        return sent


def forged(event: Event) -> Event:
    """The event with its first attribute's value changed, not re-signed."""
    (name, value), rest = event.attributes[0], event.attributes[1:]
    return replace(event, attributes=((name, f"{value}-forged"),) + rest)


class Tamper(Honest):
    """Forwards, in place of each event it records, a forged copy of it. It
    mines the genuine event, so its chains stay valid."""

    def __init__(self, *args):
        super().__init__(*args)
        self.forgeries: list[Event] = []

    def receive(self, message) -> bool:
        forward = super().receive(message)
        if forward and isinstance(message, Event):
            self.forgeries.append(forged(message))
            return False
        return forward

    def turn(self) -> list:
        sent, self.forgeries = self.forgeries + super().turn(), []
        return sent


@dataclass
class Received:
    """One message a peer received, whether it forwarded it, and the number
    of blocks of the peer's chain that receiving it dropped (a reorg)."""

    pid: str
    message: object
    forwarded: bool
    reorg: int


def hostile_run(scenario, config, rules, org, hostile: dict):
    """Run the network with the peer of each id in hostile played by an
    instance of its class. Returns the result, the peers by id and the
    Received log, in the order messages were received."""
    peers, log = {}, []

    def make(pid, *args):
        peer = peers[pid] = hostile.get(pid, Honest)(pid, *args)
        receive = peer.receive

        def logged(message) -> bool:
            before = peer.chain.blocks
            forwarded = receive(message)
            log.append(Received(pid, message, forwarded, len(before) - common(before, peer.chain.blocks)))
            return forwarded

        peer.receive = logged
        return peer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_Peer", make)
        result = network.run_network(scenario, config, rules=rules, org=org)
    return result, peers, log


def common(left: tuple, right: tuple) -> int:
    """The number of leading blocks two chains' block tuples share."""
    count = 0
    while count < min(len(left), len(right)) and left[count].header == right[count].header:
        count += 1
    return count


def injected_at(log: list) -> dict:
    """event_id -> the peer its event was injected at."""
    first: dict = {}
    for entry in log:
        if isinstance(entry.message, Event):
            first.setdefault(entry.message.event_id, entry.pid)
    return first
