"""Serialization goldens and determinism.

The genesis byte string and digest in fixtures/golden_ledger.json were
computed once from the serialization rules with a standalone SHA-256 script
and are frozen; the library must reproduce them bit for bit.
"""

import dataclasses
import hashlib
import struct

from hypothesis import example, given
from hypothesis import strategies as st

from compacts.ledger import (
    GENESIS_HEADER,
    BlockHeader,
    Event,
    _attributes_bytes,
    _text_bytes,
    canonical_serialize,
    hash_block_header,
    sign_bytes,
    verify_event_signature,
)

from conftest import load_fixture


def make_event(**overrides):
    fields = dict(
        event_id="e1",
        event_type="Reading",
        attributes={"sensor": "s1", "value": 17, "ok": True},
        emitter="ann",
        logical_ts=3,
    )
    fields.update(overrides)
    return Event.make(**fields)


def test_genesis_serialization_matches_golden():
    gold = load_fixture("golden_ledger.json")
    assert canonical_serialize(GENESIS_HEADER).hex() == gold["genesis_serialization_hex"]


def test_genesis_digest_matches_golden():
    gold = load_fixture("golden_ledger.json")
    assert hash_block_header(GENESIS_HEADER).hex() == gold["genesis_digest_hex"]


def test_serialization_is_deterministic():
    event = make_event()
    again = make_event()
    assert canonical_serialize(event) == canonical_serialize(again)
    assert hash_block_header(GENESIS_HEADER) == hash_block_header(GENESIS_HEADER)


def test_attribute_value_change_changes_bytes():
    one = make_event()
    two = make_event(attributes={"sensor": "s1", "value": 18, "ok": True})
    assert canonical_serialize(one) != canonical_serialize(two)


def test_attribute_order_is_canonical():
    one = Event.make("e", "T", {"a": 1, "b": 2}, "x", 0)
    two = Event.make("e", "T", {"b": 2, "a": 1}, "x", 0)
    assert canonical_serialize(one) == canonical_serialize(two)


def test_value_kinds_do_not_collide():
    as_int = Event.make("e", "T", {"v": 1}, "x", 0)
    as_bool = Event.make("e", "T", {"v": True}, "x", 0)
    as_text = Event.make("e", "T", {"v": "1"}, "x", 0)
    blobs = {canonical_serialize(e) for e in (as_int, as_bool, as_text)}
    assert len(blobs) == 3


def test_header_field_change_changes_digest():
    base = BlockHeader(1, b"\x11" * 32, b"\x22" * 32, "miner", 7)
    for variant in (
        BlockHeader(2, b"\x11" * 32, b"\x22" * 32, "miner", 7),
        BlockHeader(1, b"\x12" + b"\x11" * 31, b"\x22" * 32, "miner", 7),
        BlockHeader(1, b"\x11" * 32, b"\x22" * 32, "minor", 7),
        BlockHeader(1, b"\x11" * 32, b"\x22" * 32, "miner", 8),
    ):
        assert hash_block_header(variant) != hash_block_header(base)


def test_single_bit_flip_changes_digest():
    payload = canonical_serialize(GENESIS_HEADER)
    baseline = hashlib.sha256(payload).digest()
    for index in (0, len(payload) // 2, len(payload) - 1):
        flipped = bytearray(payload)
        flipped[index] ^= 0x01
        assert hashlib.sha256(bytes(flipped)).digest() != baseline


def test_signature_is_keyed_digest_of_signing_bytes():
    event = make_event().with_signature("secret")
    expected = hashlib.sha256(b"secret" + event.signing_bytes()).digest()
    assert event.signature == expected
    assert verify_event_signature(event, "secret")
    assert not verify_event_signature(event, "other")


def test_sign_bytes_depends_on_secret_and_payload():
    assert sign_bytes("k1", b"x") != sign_bytes("k2", b"x")
    assert sign_bytes("k1", b"x") != sign_bytes("k1", b"y")


def test_a_replaced_event_is_encoded_afresh():
    # the encoding is kept per instance: a copy with one field changed and
    # the old signature kept is re-encoded, so the forgery shows
    event = make_event().with_signature("secret")
    event.signing_bytes()
    for change in (
        {"event_id": "e2"},
        {"event_type": "Alarm"},
        {"attributes": (("ok", True), ("sensor", "s1"), ("value", 18))},
        {"emitter": "bob"},
        {"logical_ts": 4},
    ):
        forged = dataclasses.replace(event, **change)
        assert not verify_event_signature(forged, "secret")
        assert canonical_serialize(forged) != canonical_serialize(event)


def test_a_signed_copy_keeps_the_bytes_it_was_signed_over():
    # the signature is not among the bytes it signs, so the copy that carries
    # it need not encode them again
    signed = make_event().with_signature("secret")
    assert vars(signed)["_encoded"] is not None
    assert signed._encoded == make_event(signature=signed.signature).signing_bytes()
    assert verify_event_signature(signed, "secret")


def test_kept_bytes_take_no_part_in_equality_hash_or_repr():
    kept = make_event().with_signature("secret")
    kept.signing_bytes()
    fresh = make_event(signature=kept.signature)
    assert vars(kept) != vars(fresh)  # only the first holds its bytes
    assert kept == fresh
    assert hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh)


I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SCALARS = st.one_of(st.text(), I64, st.booleans())


@given(
    event_id=st.text(),
    event_type=st.text(),
    attributes=st.dictionaries(st.text(), SCALARS, max_size=5),
    emitter=st.text(),
    logical_ts=st.integers(min_value=0, max_value=2**64 - 1),
)
@example("é", "Ünïcödé", {"lo": -(2**63), "hi": 2**63 - 1, "yes": True, "no": False, "日本": "語"}, "", 2**64 - 1)
def test_signing_bytes_equal_a_fresh_encoding(event_id, event_type, attributes, emitter, logical_ts):
    event = Event.make(event_id, event_type, attributes, emitter, logical_ts)
    expected = (
        _text_bytes(event_id)
        + _text_bytes(event_type)
        + _attributes_bytes(attributes)
        + _text_bytes(emitter)
        + struct.pack(">Q", logical_ts)
    )
    assert event.signing_bytes() == expected
    assert event.signing_bytes() == expected  # again, from the kept bytes
