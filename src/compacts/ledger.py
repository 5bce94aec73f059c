"""Append-only, hash-chained, proof-of-work ledger.

Events are attributed, emitter-signed occurrences; blocks batch events under a
header whose SHA-256 hash must fall below a numeric target; headers link by
hash back to a fixed, content-defined genesis block. Everything here is a pure
function of its arguments: the nonce search is a deterministic scan from 0,
signatures are keyed digests (SHA-256 of secret followed by the canonical
bytes), and serialization is bit-exact so digests agree across runs.

Byte layout of the canonical serialization: fields in declared order, integers
as 8-byte big-endian, every text/byte field preceded by a 4-byte big-endian
length, attribute maps as a 4-byte entry count followed by entries in
ascending key order with values tagged ``s``/``i``/``b`` for text, integer and
boolean.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Optional, Union

from . import validator

Scalar = Union[str, int, bool]

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE
MAX_NONCE = 2**64 - 1


class LedgerError(Exception):
    """Base class for ledger failures."""


class NonceExhausted(LedgerError):
    """No nonce in the 64-bit range satisfies the target."""


class EmptyCandidateSet(LedgerError):
    """select_active_chain was given no candidates."""


def _text_bytes(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _blob_bytes(value: bytes) -> bytes:
    return struct.pack(">I", len(value)) + value


def _scalar_bytes(value: Scalar) -> bytes:
    # bool is a subclass of int; test it first.
    if isinstance(value, bool):
        return b"b" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return b"i" + struct.pack(">q", value)
    if isinstance(value, str):
        return b"s" + _text_bytes(value)
    raise TypeError(f"unsupported attribute value type: {type(value).__name__}")


def _attributes_bytes(attributes: Mapping[str, Scalar]) -> bytes:
    parts = [struct.pack(">I", len(attributes))]
    for key in sorted(attributes):
        parts.append(_text_bytes(key))
        parts.append(_scalar_bytes(attributes[key]))
    return b"".join(parts)


class Position(NamedTuple):
    """Total order over ledger occurrences: (block index, offset in block).

    A plain tuple: ordering, equality and hashing are the tuple's, so
    positions compare lexicographically, block first. Offset -1 denotes the
    block boundary itself, before any event of that block; deadline and
    expiry transitions anchor there.
    """

    block_index: int
    offset_in_block: int


@dataclass(frozen=True, eq=True)
class Event:
    """An emitter-signed occurrence; the unit of shared truth on the ledger.

    logical_ts is client-supplied and advisory only; Position on the chain is
    the authoritative order.
    """

    event_id: str
    event_type: str
    attributes: tuple[tuple[str, Scalar], ...]
    emitter: str
    logical_ts: int
    signature: bytes = b""

    @staticmethod
    def make(
        event_id: str,
        event_type: str,
        attributes: Mapping[str, Scalar],
        emitter: str,
        logical_ts: int = 0,
        signature: bytes = b"",
    ) -> "Event":
        return Event(
            event_id=event_id,
            event_type=event_type,
            attributes=tuple(sorted(attributes.items())),
            emitter=emitter,
            logical_ts=logical_ts,
            signature=signature,
        )

    @property
    def attribute_map(self) -> dict[str, Scalar]:
        return dict(self.attributes)

    def signing_bytes(self) -> bytes:
        """Canonical bytes of every field except the signature."""
        return (
            _text_bytes(self.event_id)
            + _text_bytes(self.event_type)
            + _attributes_bytes(dict(self.attributes))
            + _text_bytes(self.emitter)
            + struct.pack(">Q", self.logical_ts)
        )

    def with_signature(self, secret: str) -> "Event":
        return Event(
            event_id=self.event_id,
            event_type=self.event_type,
            attributes=self.attributes,
            emitter=self.emitter,
            logical_ts=self.logical_ts,
            signature=sign_bytes(secret, self.signing_bytes()),
        )


@dataclass(frozen=True, eq=True)
class BlockHeader:
    index: int
    prev_hash: bytes
    events_digest: bytes
    miner: str
    nonce: int


def sign_bytes(secret: str, payload: bytes) -> bytes:
    """Keyed digest standing in for a real signature: SHA-256(secret || payload)."""
    return hashlib.sha256(secret.encode("utf-8") + payload).digest()


def verify_event_signature(event: Event, secret: str) -> bool:
    return event.signature == sign_bytes(secret, event.signing_bytes())


def canonical_serialize(item: Union[Event, BlockHeader]) -> bytes:
    """Deterministic, injective byte encoding used for all hashing."""
    if isinstance(item, Event):
        return item.signing_bytes() + _blob_bytes(item.signature)
    if isinstance(item, BlockHeader):
        return (
            struct.pack(">Q", item.index)
            + _blob_bytes(item.prev_hash)
            + _blob_bytes(item.events_digest)
            + _text_bytes(item.miner)
            + struct.pack(">Q", item.nonce)
        )
    raise TypeError(f"cannot serialize {type(item).__name__}")


def hash_block_header(header: BlockHeader) -> bytes:
    return hashlib.sha256(canonical_serialize(header)).digest()


def events_digest(events: tuple[Event, ...]) -> bytes:
    payload = b"".join(canonical_serialize(e) for e in events)
    return hashlib.sha256(payload).digest()


GENESIS_HEADER = BlockHeader(
    index=0,
    prev_hash=ZERO_DIGEST,
    events_digest=hashlib.sha256(b"").digest(),
    miner="genesis",
    nonce=0,
)


@dataclass(frozen=True, eq=True)
class Block:
    header: BlockHeader
    events: tuple[Event, ...]


GENESIS_BLOCK = Block(header=GENESIS_HEADER, events=())


@dataclass(frozen=True, eq=True)
class Chain:
    """Sequence of hash-linked blocks starting at the shared genesis block.

    A chain may also hold, in a private cell, the admission index
    (validator.LedgerIndex) that validate_block keeps for it: the rules, the
    index, and the last block whose events the index holds, which is the tip
    or a block accepted on top of it. extend hands the index to the child,
    adding the block's events if the index covers only the tip; for any
    other block the child starts without one. So only the newest chain holds
    it and nothing is copied. The cell takes no part in equality, hashing or
    repr.
    """

    blocks: tuple[Block, ...] = field(default_factory=lambda: (GENESIS_BLOCK,))
    _admission: list = field(default_factory=list, init=False, compare=False, repr=False)

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.header.index

    def tip_digest(self) -> bytes:
        return hash_block_header(self.tip.header)

    def extend(self, block: Block) -> "Chain":
        child = Chain(blocks=self.blocks + (block,))
        if self._admission:
            rules, index, covered = self._admission.pop()
            if covered is self.tip:
                for event in block.events:
                    index.add(event)
                covered = block
            if covered is block:
                child._admission.append((rules, index, block))
        return child

    def _take_index(self, rules) -> "validator.LedgerIndex":
        """Remove the held index and return it if it covers this chain for
        rules; otherwise build one from this chain's events."""
        if self._admission:
            held_rules, index, covered = self._admission.pop()
            if held_rules is rules and covered is self.tip:
                return index
        return validator.LedgerIndex(rules, self.events())

    def events(self) -> Iterator[Event]:
        for block in self.blocks:
            yield from block.events


def genesis_chain() -> Chain:
    return Chain()


def mine_block(
    events: tuple[Event, ...],
    prev: BlockHeader,
    target: int,
    miner: str,
) -> BlockHeader:
    """Find the least nonce whose header hash falls below the target.

    Deterministic: the scan starts at 0 and increments by 1.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    digest = events_digest(tuple(events))
    prev_digest = hash_block_header(prev)
    nonce = 0
    while nonce <= MAX_NONCE:
        header = BlockHeader(
            index=prev.index + 1,
            prev_hash=prev_digest,
            events_digest=digest,
            miner=miner,
            nonce=nonce,
        )
        if int.from_bytes(hash_block_header(header), "big") < target:
            return header
        nonce += 1
    raise NonceExhausted(f"no nonce below target {target:#x}")


@dataclass(frozen=True)
class Rejection:
    """Why a block was refused; carries the first failing check's name."""

    reason: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.reason}: {self.detail}" if self.detail else self.reason


def validate_block(
    chain: Chain,
    block: Block,
    target: Optional[int] = None,
    roster: Optional[Mapping[str, str]] = None,
    rules=None,
    roles_of=None,
    index=None,
) -> Optional[Rejection]:
    """Check a proposed next block against a chain; None means accepted.

    Checks run in a fixed order and the first failure wins: hash link, target
    bound, index continuity, events digest, per-event signatures, event id
    uniqueness, then validator admission. Target, roster and rules are
    optional context; the corresponding checks are skipped when absent.
    roles_of resolves a principal's roles for channel membership.

    index is the validator.LedgerIndex of chain for these rules, when the
    caller keeps one: the block's events are added to it as they pass, so
    pass a copy the caller may drop on a rejection. Without it the chain's
    own index is used (see Chain): taken from the chain when it holds one
    for the same rules object that covers exactly the chain, built from the
    chain's events otherwise. An accepted block leaves it on the chain,
    marked as covering that block, for extend to hand on; a block rejected
    at the id or admission checks drops it, and the next call rebuilds it.
    """
    prev = chain.tip.header
    if block.header.prev_hash != hash_block_header(prev):
        return Rejection("BadLink", f"block {block.header.index}")
    if target is not None:
        if int.from_bytes(hash_block_header(block.header), "big") >= target:
            return Rejection("AboveTarget", f"block {block.header.index}")
    if block.header.index != prev.index + 1:
        return Rejection(
            "BadIndex", f"expected {prev.index + 1}, got {block.header.index}"
        )
    if block.header.events_digest != events_digest(block.events):
        return Rejection("BadEventsDigest", f"block {block.header.index}")
    if roster is not None:
        for event in block.events:
            secret = roster.get(event.emitter)
            if secret is None or not verify_event_signature(event, secret):
                return Rejection("BadSignature", event.event_id)
    if not block.events:
        return None
    held = index is None
    if held:
        index = chain._take_index(rules)
    in_block: set[str] = set()
    for event in block.events:
        if event.event_id in index.event_ids or event.event_id in in_block:
            return Rejection("DuplicateEventId", event.event_id)
        in_block.add(event.event_id)
    # Admission per the validator module: each event is checked against the
    # chain prefix plus the earlier events of this block.
    for event in block.events:
        if rules is not None:
            problems = validator.validate_event_schema(event, rules, roles_of)
            if not problems:
                problems = validator.check_integrity(event, index)
            if problems:
                return Rejection("IntegrityViolation", str(problems[0]))
        index.add(event)
    if held:
        chain._admission.append((rules, index, block))
    return None


@dataclass(frozen=True)
class FirstBadBlock:
    index: int
    rejection: Rejection


def verify_chain(
    chain: Chain,
    target: Optional[int] = None,
    roster: Optional[Mapping[str, str]] = None,
    rules=None,
    roles_of=None,
    memo: Optional[dict] = None,
) -> Optional[FirstBadBlock]:
    """Verify every block against its prefix; None means the chain is sound.

    Block 0 must be the shared genesis block exactly. Returns the lowest
    failing index otherwise.

    memo maps the header digest of each block verified so far to the
    verified blocks up to and including it and their validator.LedgerIndex.
    With it, verification starts after the newest block whose memo entry
    holds exactly this chain's blocks up to that block, and every block that
    passes is stored. A memo is only valid for one target, roster, rules and
    roles_of. Without it every block is verified from genesis.
    """
    if not chain.blocks:
        return FirstBadBlock(0, Rejection("BadGenesis", "empty chain"))
    head = chain.blocks[0]
    if head.header != GENESIS_HEADER or head.events:
        return FirstBadBlock(0, Rejection("BadGenesis", "not the shared genesis"))
    blocks = chain.blocks
    start, index = 1, validator.LedgerIndex(rules)
    if memo is not None:
        for height in range(len(blocks) - 1, 0, -1):
            known = memo.get(hash_block_header(blocks[height].header))
            if known is not None and known[0] == blocks[: height + 1]:
                start, index = height + 1, known[1]
                break
    for height in range(start, len(blocks)):
        block = blocks[height]
        if memo is not None and block.events:
            index = index.copy()  # the memo keeps the parent's index
        rejection = validate_block(
            Chain(blocks=blocks[:height]), block, target=target, roster=roster,
            rules=rules, roles_of=roles_of, index=index,
        )
        if rejection is not None:
            return FirstBadBlock(block.header.index, rejection)
        if memo is not None:
            memo[hash_block_header(block.header)] = (blocks[: height + 1], index)
    return None


def select_active_chain(candidates: list[Chain]) -> Chain:
    """Longest candidate wins; ties break to the smallest tip digest."""
    if not candidates:
        raise EmptyCandidateSet("no candidate chains")
    return min(candidates, key=lambda c: (-len(c.blocks), c.tip_digest()))
