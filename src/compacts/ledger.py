"""Append-only, hash-chained, proof-of-work ledger.

Events are attributed, emitter-signed occurrences; blocks batch events under a
header whose SHA-256 hash must fall below a numeric target; headers link by
hash back to a fixed, content-defined genesis block. Everything here is a pure
function of its arguments: the nonce search is a deterministic scan from 0,
signatures are keyed digests (SHA-256 of secret followed by the canonical
bytes), and serialization is bit-exact so digests agree across runs. Each
byte is computed once: an event encodes its canonical bytes on first use and
keeps them, a header keeps its digest (mining fills it from the winning
attempt), and mining hashes a block's fixed header prefix once, then per
nonce copies that hash state and feeds only the 8 nonce bytes.

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
_U32 = struct.Struct(">I").pack
_U64 = struct.Struct(">Q").pack
_I64 = struct.Struct(">q").pack


class LedgerError(Exception):
    """Base class for ledger failures."""


class NonceExhausted(LedgerError):
    """No nonce in the 64-bit range satisfies the target."""


class EmptyCandidateSet(LedgerError):
    """select_active_chain was given no candidates."""


def _text_bytes(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _U32(len(raw)) + raw


def _blob_bytes(value: bytes) -> bytes:
    return _U32(len(value)) + value


def _scalar_bytes(value: Scalar) -> bytes:
    # bool is a subclass of int; test it first.
    if isinstance(value, bool):
        return b"b" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return b"i" + _I64(value)
    if isinstance(value, str):
        return b"s" + _text_bytes(value)
    raise TypeError(f"unsupported attribute value type: {type(value).__name__}")


def _attributes_bytes(attributes: Mapping[str, Scalar]) -> bytes:
    parts = [_U32(len(attributes))]
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
    the authoritative order. attribute_map keeps the dict it builds, which
    no caller changes, and signing_bytes the bytes it encodes, each in a
    private cell that takes no part in equality, hashing or repr.
    """

    event_id: str
    event_type: str
    attributes: tuple[tuple[str, Scalar], ...]
    emitter: str
    logical_ts: int
    signature: bytes = b""
    _map: Optional[dict[str, Scalar]] = field(default=None, init=False, compare=False, repr=False)
    _encoded: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)

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
        if self._map is None:
            object.__setattr__(self, "_map", dict(self.attributes))
        return self._map

    def signing_bytes(self) -> bytes:
        """Canonical bytes of every field except the signature."""
        if self._encoded is None:
            object.__setattr__(self, "_encoded", (
                _text_bytes(self.event_id)
                + _text_bytes(self.event_type)
                + _attributes_bytes(self.attribute_map)
                + _text_bytes(self.emitter)
                + _U64(self.logical_ts)
            ))
        return self._encoded

    def with_signature(self, secret: str) -> "Event":
        signature = sign_bytes(secret, self.signing_bytes())
        signed = Event(self.event_id, self.event_type, self.attributes, self.emitter, self.logical_ts, signature)
        # the signature is not among the bytes it signs: the copy keeps them
        object.__setattr__(signed, "_map", self._map)
        object.__setattr__(signed, "_encoded", self._encoded)
        return signed


@dataclass(frozen=True, eq=True)
class BlockHeader:
    index: int
    prev_hash: bytes
    events_digest: bytes
    miner: str
    nonce: int
    _digest: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)


def sign_bytes(secret: str, payload: bytes) -> bytes:
    """Keyed digest standing in for a real signature: SHA-256(secret || payload)."""
    return hashlib.sha256(secret.encode("utf-8") + payload).digest()


def verify_event_signature(event: Event, secret: str) -> bool:
    return event.signature == sign_bytes(secret, event.signing_bytes())


def _header_prefix(index: int, prev_hash: bytes, events_digest: bytes, miner: str) -> bytes:
    """A header's canonical bytes up to the nonce, which is the last field."""
    return _U64(index) + _blob_bytes(prev_hash) + _blob_bytes(events_digest) + _text_bytes(miner)


def canonical_serialize(item: Union[Event, BlockHeader]) -> bytes:
    """Deterministic, injective byte encoding used for all hashing."""
    if isinstance(item, Event):
        return item.signing_bytes() + _blob_bytes(item.signature)
    if isinstance(item, BlockHeader):
        prefix = _header_prefix(item.index, item.prev_hash, item.events_digest, item.miner)
        return prefix + _U64(item.nonce)
    raise TypeError(f"cannot serialize {type(item).__name__}")


def hash_block_header(header: BlockHeader) -> bytes:
    if header._digest is None:
        object.__setattr__(header, "_digest", hashlib.sha256(canonical_serialize(header)).digest())
    return header._digest


_EMPTY_DIGEST = hashlib.sha256(b"").digest()


def events_digest(events: tuple[Event, ...]) -> bytes:
    """SHA-256 of the events' canonical bytes, joined in order. Each event's
    signing bytes and its length-prefixed signature are fed to one hash in
    turn, so an event's canonical bytes are never built."""
    if not events:
        return _EMPTY_DIGEST
    digest = hashlib.sha256()
    for event in events:
        digest.update(event.signing_bytes())
        digest.update(_blob_bytes(event.signature))
    return digest.digest()


GENESIS_HEADER = BlockHeader(
    index=0,
    prev_hash=ZERO_DIGEST,
    events_digest=_EMPTY_DIGEST,
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

    A chain is the one holder of its admission index (validator.LedgerIndex,
    which holds the rules it is for), kept in a private cell with the block it
    covers: the tip, or a block validate_block accepted on top of it; no
    other module touches the cell. admission_index builds the index from the
    chain's events on first use. A network peer hands extend the index its
    admission filled for the chain it mines (network._Peer.turn), and
    verify_chain's memo chains each hold their own. The cell takes no part
    in equality, hashing or repr.
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

    def extend(self, block: Block, index: Optional["validator.LedgerIndex"] = None) -> "Chain":
        """The chain with block on top, holding index if handed one, else the
        parent's if that covers block; the parent then gives its index up."""
        child = Chain(blocks=self.blocks + (block,))
        if index is None and self._admission and self._admission[-1][1] is block:
            index = self._admission.pop()[0]
        if index is not None:
            child._admission.append((index, block))
        return child

    def admission_index(self, rules) -> "validator.LedgerIndex":
        """The chain's index for rules: the one it holds if that covers this
        chain under the same rules object, else one built from its events,
        which the chain then holds."""
        if self._admission:
            index, covered = self._admission[-1]
            if index.rules is rules and covered is self.tip:
                return index
            self._admission.clear()
        index = validator.LedgerIndex(rules, self.events())
        self._admission.append((index, self.tip))
        return index

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
    midstate = hashlib.sha256(_header_prefix(prev.index + 1, prev_digest, digest, miner))
    # As bytes, a digest sorts below this bound exactly when, as an integer, it is below target.
    bound = (min(target, 1 << 256) - 1).to_bytes(DIGEST_SIZE, "big") + b"\x00"
    for nonce in range(MAX_NONCE + 1):
        attempt = midstate.copy()
        attempt.update(_U64(nonce))
        found = attempt.digest()
        if found < bound:
            header = BlockHeader(prev.index + 1, prev_digest, digest, miner, nonce)
            object.__setattr__(header, "_digest", found)
            return header
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
) -> Optional[Rejection]:
    """Check a proposed next block against a chain; None means accepted.

    Every block gets every check, in a fixed order, and the first failure
    wins: hash link, target bound, index continuity, events digest,
    per-event signatures, event id uniqueness, then validator admission.
    Target, roster and rules are optional context; the corresponding checks
    are skipped when absent. roles_of resolves a principal's roles for
    channel membership. A network peer validates only blocks it did not
    build (see network._Peer.turn).

    Admission runs on the chain's own index (see Chain), the block's events
    added as they pass. An accepted block, an empty one too, leaves it on
    the chain, covering that block, for extend to hand on; a block rejected
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
    index = chain.admission_index(rules)
    chain._admission.clear()  # a rejection leaves the index half-filled
    in_block: set[str] = set()
    for event in block.events:
        if event.event_id in index.event_ids or event.event_id in in_block:
            return Rejection("DuplicateEventId", event.event_id)
        in_block.add(event.event_id)
    # Admission: each event is checked against the chain prefix and this block's earlier events.
    for event in block.events:
        if rules is not None:
            problems = validator.validate_event_schema(event, rules, roles_of)
            if not problems:
                problems = validator.check_integrity(event, index)
            if problems:
                return Rejection("IntegrityViolation", str(problems[0]))
        index.add(event)
    chain._admission.append((index, block))
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

    memo maps a tip digest to the chain verified whole that ends there,
    holding its own index; a network peer also stores there each chain it
    mines, as built (network._Peer.turn). With it, verification starts
    after the newest block whose memo chain holds exactly this chain's
    blocks up to that block: that chain's index is copied once, and the
    whole suffix is validated on the copy, which extend hands from block to
    block. Only a chain that passes whole is stored, under its tip digest.
    A memo is only valid for one target, roster, rules and roles_of.
    Without it every block is verified from genesis, in the same loop.
    """
    if not chain.blocks:
        return FirstBadBlock(0, Rejection("BadGenesis", "empty chain"))
    head = chain.blocks[0]
    if head.header != GENESIS_HEADER or head.events:
        return FirstBadBlock(0, Rejection("BadGenesis", "not the shared genesis"))
    blocks, verified = chain.blocks, Chain(blocks=chain.blocks[:1])
    if memo is not None:
        for height in range(len(blocks) - 1, 0, -1):
            known = memo.get(hash_block_header(blocks[height].header))
            if known is not None and known.blocks == blocks[: height + 1]:
                if height == len(blocks) - 1:
                    return None
                copy = known.admission_index(rules).copy()  # the memo's chain keeps its own
                verified = Chain(blocks=blocks[:height]).extend(known.tip, copy)
                break
    for block in blocks[len(verified.blocks):]:
        rejection = validate_block(verified, block, target, roster, rules, roles_of)
        if rejection is not None:
            return FirstBadBlock(block.header.index, rejection)
        verified = verified.extend(block)
    if memo is not None and len(blocks) > 1:
        memo[chain.tip_digest()] = verified
    return None


def select_active_chain(candidates: list[Chain]) -> Chain:
    """Longest candidate wins; ties break to the smallest tip digest."""
    if not candidates:
        raise EmptyCandidateSet("no candidate chains")
    return min(candidates, key=lambda c: (-len(c.blocks), c.tip_digest()))
