"""Mining, block validation, chain verification, fork choice."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compacts.ledger import (
    GENESIS_HEADER,
    Block,
    BlockHeader,
    Chain,
    EmptyCandidateSet,
    Event,
    _header_prefix,
    canonical_serialize,
    events_digest,
    genesis_chain,
    hash_block_header,
    mine_block,
    select_active_chain,
    validate_block,
    verify_chain,
)

from compacts.fileformats import MIN_TARGET, chain_to_json
from compacts.governance import Organization, ruleset_from_spec
from compacts.lang import parse_compact
from compacts.validator import LedgerIndex

from conftest import (
    DEMOS,
    EASY_TARGET,
    HOSPITAL_ROSTER,
    bench_generators,
    build_chain,
    load_fixture,
    signed_event,
)

ROSTER = {"ann": "ann-secret", "ben": "ben-secret"}


def some_events(start=0, count=2):
    return tuple(
        signed_event(f"e{start + i}", "Reading", {"sensor": "s1", "value": start + i}, "ann", ROSTER)
        for i in range(count)
    )


def test_mine_with_trivial_target_accepts_nonce_zero():
    header = mine_block((), GENESIS_HEADER, EASY_TARGET, "ann")
    assert header.nonce == 0
    assert header.index == 1
    assert header.prev_hash == hash_block_header(GENESIS_HEADER)


def test_mine_golden_least_nonce():
    gold = load_fixture("golden_ledger.json")
    target = int(gold["mine_target_hex"], 16)
    header = mine_block((), GENESIS_HEADER, target, gold["mine_miner"])
    assert header.nonce == gold["mine_nonce"]
    assert hash_block_header(header).hex() == gold["mine_header_digest_hex"]
    # least qualifying nonce: every smaller one is above the target
    for nonce in range(header.nonce):
        candidate = header.__class__(
            index=header.index,
            prev_hash=header.prev_hash,
            events_digest=header.events_digest,
            miner=header.miner,
            nonce=nonce,
        )
        assert int.from_bytes(hash_block_header(candidate), "big") >= target


def reference_mine(events, prev, target, miner):
    """The scan by definition: a whole header built and hashed per nonce."""
    for nonce in itertools.count():
        header = BlockHeader(prev.index + 1, hash_block_header(prev), events_digest(events), miner, nonce)
        if int.from_bytes(hash_block_header(header), "big") < target:
            return header


@pytest.mark.parametrize("miner", ["", "peer-1", "mïner-日本-🙂"])
@pytest.mark.parametrize("bits", range(256, 246, -1))
def test_mine_block_matches_the_reference_scan(miner, bits):
    rng = random.Random(f"{miner}/{bits}")
    prev = BlockHeader(
        index=rng.randrange(2**63),
        prev_hash=rng.randbytes(32),
        events_digest=rng.randbytes(32),
        miner=rng.choice(["", "peer-2", "prév"]),
        nonce=rng.randrange(2**64),
    )
    events = some_events(start=bits, count=rng.randrange(3))
    header = mine_block(events, prev, 1 << bits, miner)
    assert header == reference_mine(events, prev, 1 << bits, miner)
    prefix = _header_prefix(header.index, header.prev_hash, header.events_digest, header.miner)
    assert canonical_serialize(header) == prefix + header.nonce.to_bytes(8, "big")
    # the header keeps the winning attempt's digest, which is its bytes' digest
    assert vars(header)["_digest"] == hashlib.sha256(canonical_serialize(header)).digest()


def test_mine_block_finds_the_least_nonce_at_every_target(monkeypatch):
    """Mining compares digests with a byte bound; the nonce it finds is the
    least whose digest is below the target as an integer. At a target equal
    to that digest, every nonce up to it fails: the earlier ones are above
    the digest, and the digest is not below itself."""
    import compacts.ledger as ledger_module
    from compacts.ledger import NonceExhausted

    rng = random.Random(7)
    targets = [EASY_TARGET, 1 << 257, MIN_TARGET, bench_generators().DEMO_TARGET, 1 << 255]
    targets += [rng.randrange(1 << 247, 1 << rng.randrange(248, 258)) for _ in range(12)]
    events = some_events()
    for target in targets:
        header = mine_block(events, GENESIS_HEADER, target, "ann")
        assert header == reference_mine(events, GENESIS_HEADER, target, "ann"), hex(target)
        digest = int.from_bytes(hash_block_header(header), "big")
        assert mine_block(events, GENESIS_HEADER, digest + 1, "ann").nonce == header.nonce
        with monkeypatch.context() as patch:
            patch.setattr(ledger_module, "MAX_NONCE", header.nonce)
            with pytest.raises(NonceExhausted):
                mine_block(events, GENESIS_HEADER, digest, "ann")


def test_a_replaced_header_is_hashed_afresh():
    header = mine_block(some_events(), GENESIS_HEADER, 1 << 252, "ann")
    assert header.nonce > 0
    for change in (
        {"index": 2},
        {"prev_hash": bytes(32)},
        {"events_digest": bytes(32)},
        {"miner": "ben"},
        {"nonce": header.nonce - 1},
    ):
        copy = dataclasses.replace(header, **change)
        assert copy._digest is None
        assert hash_block_header(copy) == hashlib.sha256(canonical_serialize(copy)).digest()
        assert hash_block_header(copy) != hash_block_header(header)


def test_a_kept_digest_takes_no_part_in_equality_hash_repr_or_the_snapshot():
    events = some_events()
    mined = mine_block(events, GENESIS_HEADER, 1 << 252, "ann")
    fresh = BlockHeader(mined.index, mined.prev_hash, mined.events_digest, mined.miner, mined.nonce)
    assert vars(mined) != vars(fresh)  # only the mined one holds its digest
    assert mined == fresh
    assert hash(mined) == hash(fresh)
    assert repr(mined) == repr(fresh)
    kept, bare = (genesis_chain().extend(Block(header=h, events=events)) for h in (mined, fresh))
    assert chain_to_json(kept) == chain_to_json(bare)


def test_nonce_exhaustion_raises(monkeypatch):
    import compacts.ledger as ledger_module
    from compacts.ledger import NonceExhausted

    monkeypatch.setattr(ledger_module, "MAX_NONCE", 255)
    with pytest.raises(NonceExhausted):
        mine_block((), GENESIS_HEADER, 1, "ann")  # hash < 1 is unreachable


def test_empty_block_events_digest_is_hash_of_nothing():
    gold = load_fixture("golden_ledger.json")
    header = mine_block((), GENESIS_HEADER, EASY_TARGET, "ann")
    assert header.events_digest.hex() == gold["empty_events_digest_hex"]
    assert header.events_digest == hashlib.sha256(b"").digest()


_EVENTS = st.lists(
    st.builds(
        Event.make,
        event_id=st.text(max_size=3),
        event_type=st.sampled_from(["Reading", "Alarm"]),
        attributes=st.dictionaries(
            st.sampled_from(["a", "b", "value"]),
            st.one_of(st.booleans(), st.integers(-(2**63), 2**63 - 1), st.text(max_size=3)),
        ),
        emitter=st.sampled_from(["ann", "ben"]),
        logical_ts=st.integers(0, 2**64 - 1),
        signature=st.one_of(st.just(b""), st.binary(min_size=1, max_size=33)),
    ),
    max_size=6,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(events=_EVENTS)
@example(events=[])
@example(events=[Event.make("e", "Reading", {}, "ann", 0, sig) for sig in (b"", b"\x01", b"abc", b"", bytes(33))])
def test_the_streamed_events_digest_equals_the_digest_of_the_joined_bytes(events):
    # events_digest feeds each event's bytes to one hash; the digest is
    # that of all the events' canonical bytes joined
    joined = hashlib.sha256(b"".join(canonical_serialize(event) for event in events)).digest()
    assert events_digest(tuple(events)) == joined


def test_validate_block_accepts_honest_block():
    chain = genesis_chain()
    events = some_events()
    header = mine_block(events, chain.tip.header, EASY_TARGET, "ann")
    block = Block(header=header, events=events)
    assert validate_block(chain, block, target=EASY_TARGET, roster=ROSTER) is None


def test_validate_block_rejects_bad_link():
    chain = genesis_chain()
    events = some_events()
    header = mine_block(events, chain.tip.header, EASY_TARGET, "ann")
    wrong = header.__class__(
        index=header.index,
        prev_hash=b"\xab" * 32,
        events_digest=header.events_digest,
        miner=header.miner,
        nonce=header.nonce,
    )
    rejection = validate_block(chain, Block(wrong, events), target=EASY_TARGET)
    assert rejection.reason == "BadLink"


def test_validate_block_rejects_above_target():
    chain = genesis_chain()
    events = some_events()
    # mined against an easy bound, validated against an impossible one
    header = mine_block(events, chain.tip.header, EASY_TARGET, "ann")
    rejection = validate_block(chain, Block(header, events), target=1)
    assert rejection.reason == "AboveTarget"


def test_validate_block_rejects_bad_index():
    chain = genesis_chain()
    events = some_events()
    header = mine_block(events, chain.tip.header, EASY_TARGET, "ann")
    skipped = header.__class__(
        index=header.index + 1,
        prev_hash=header.prev_hash,
        events_digest=header.events_digest,
        miner=header.miner,
        nonce=header.nonce,
    )
    rejection = validate_block(chain, Block(skipped, events))
    assert rejection.reason == "BadIndex"


def test_validate_block_reports_admission_failures():
    from compacts.validator import Channel, IntegrityRuleSet, Parameter, SchemaDecl

    rules = IntegrityRuleSet(
        schemas=(SchemaDecl("Reading", (Parameter("sensor", "text", "key"),
                                        Parameter("value", "int", "out"))),),
        channels=(Channel("wire", ("ann",), ("Reading",)),),
    )
    chain = genesis_chain()
    outsider = signed_event("e0", "Reading", {"sensor": "s1", "value": 1}, "ben", ROSTER)
    header = mine_block((outsider,), chain.tip.header, EASY_TARGET, "ben")
    rejection = validate_block(chain, Block(header, (outsider,)), roster=ROSTER, rules=rules)
    assert rejection.reason == "IntegrityViolation"
    assert "EmitterNotOnChannel" in rejection.detail


def test_validate_block_rejects_altered_event_signature():
    chain = genesis_chain()
    original = signed_event("e0", "Reading", {"sensor": "s1", "value": 1}, "ann", ROSTER)
    tampered = Event.make(
        "e0", "Reading", {"sensor": "s1", "value": 999}, "ann", 0, original.signature
    )
    header = mine_block((tampered,), chain.tip.header, EASY_TARGET, "ann")
    rejection = validate_block(chain, Block(header, (tampered,)), roster=ROSTER)
    assert rejection.reason == "BadSignature"


def test_validate_block_rejects_duplicate_event_id():
    events = some_events()
    chain = build_chain([events])
    dup = (events[0],)
    header = mine_block(dup, chain.tip.header, EASY_TARGET, "ann")
    rejection = validate_block(chain, Block(header, dup), roster=ROSTER)
    assert rejection.reason == "DuplicateEventId"


def test_validate_block_rejects_bad_events_digest():
    chain = genesis_chain()
    events = some_events()
    header = mine_block(events, chain.tip.header, EASY_TARGET, "ann")
    swapped = Block(header, some_events(start=10))
    rejection = validate_block(chain, swapped, target=EASY_TARGET)
    assert rejection.reason == "BadEventsDigest"


def test_verify_chain_accepts_untampered_chain():
    chain = build_chain([some_events(i * 2) for i in range(10)])
    assert verify_chain(chain, target=EASY_TARGET, roster=ROSTER) is None


def test_verify_chain_genesis_only_is_ok():
    assert verify_chain(genesis_chain()) is None


def test_verify_chain_flags_tampered_event_at_its_block():
    chain = build_chain([some_events(i * 2) for i in range(10)])
    victim = chain.blocks[4]
    forged_event = Event.make(
        victim.events[0].event_id,
        victim.events[0].event_type,
        {"sensor": "s1", "value": -1},
        victim.events[0].emitter,
        victim.events[0].logical_ts,
        victim.events[0].signature,
    )
    blocks = list(chain.blocks)
    blocks[4] = Block(victim.header, (forged_event,) + victim.events[1:])
    bad = verify_chain(Chain(blocks=tuple(blocks)), roster=ROSTER)
    assert bad.index == 4
    assert bad.rejection.reason in ("BadEventsDigest", "BadSignature")


def test_verify_chain_rejects_foreign_genesis():
    header = GENESIS_HEADER.__class__(
        index=0,
        prev_hash=b"\x00" * 32,
        events_digest=GENESIS_HEADER.events_digest,
        miner="impostor",
        nonce=0,
    )
    chain = Chain(blocks=(Block(header, ()),))
    bad = verify_chain(chain)
    assert bad.index == 0
    assert bad.rejection.reason == "BadGenesis"


def test_target_monotonicity_lowering_never_admits():
    rng = random.Random(5)
    chain = genesis_chain()
    events = some_events()
    header = mine_block(events, chain.tip.header, 1 << 252, "ann")
    block = Block(header, events)
    digest_value = int.from_bytes(hash_block_header(header), "big")
    for _ in range(50):
        target = rng.randrange(1, 1 << 256)
        verdict = validate_block(chain, block, target=target)
        if verdict is not None and verdict.reason == "AboveTarget":
            assert digest_value >= target
            # a lower target must also reject
            assert validate_block(chain, block, target=target // 2 or 1) is not None
        elif verdict is None:
            assert digest_value < target


def test_select_active_chain_prefers_longest():
    short = build_chain([some_events(0)])
    long = build_chain([some_events(0), some_events(10), some_events(20)])
    assert select_active_chain([short, long]) is long
    assert select_active_chain([long, short]) is long


def test_select_active_chain_tie_breaks_on_tip_digest():
    one = build_chain([some_events(0)], miner="peer-1")
    two = build_chain([some_events(0)], miner="peer-2")
    expected = min((one, two), key=lambda c: c.tip_digest())
    assert select_active_chain([one, two]) is expected
    assert select_active_chain([two, one]) is expected


def test_select_active_chain_single_candidate_is_identity():
    only = build_chain([some_events(0)])
    assert select_active_chain([only]) is only


def test_select_active_chain_rejects_empty_set():
    with pytest.raises(EmptyCandidateSet):
        select_active_chain([])


def test_events_digest_covers_signature_bytes():
    events = some_events()
    resigned = (events[0].with_signature("other-key"), events[1])
    assert events_digest(events) != events_digest(resigned)


def _hospital_block(prefix, *events):
    return Block(mine_block(events, prefix.tip.header, EASY_TARGET, "peer-1"), events)


def _hospital_event(event_id, event_type, attributes, emitter):
    return signed_event(event_id, event_type, attributes, emitter, HOSPITAL_ROSTER)


def test_validate_block_hands_its_index_on_like_a_rebuild(hospital_spec, hospital_org):
    """Every verdict on a chain that carries its admission index matches the
    verdict on a fresh Chain of the same blocks, which builds one."""
    rules = ruleset_from_spec(hospital_spec)

    def verdict(prefix, block, rules=rules):
        context = dict(
            target=EASY_TARGET, roster=HOSPITAL_ROSTER, rules=rules, roles_of=hospital_org.roles_of
        )
        expected = validate_block(Chain(blocks=prefix.blocks), block, **context)
        assert validate_block(prefix, block, **context) == expected
        return None if expected is None else expected.reason

    def report(event_id, report_id, patient, nurse="bob"):
        attributes = {"report": report_id, "patient": patient, "nurse": nurse, "verdict": "excused"}
        return _hospital_event(event_id, "InvestigationReport", attributes, "hospital")

    admit = _hospital_event("e0", "Admit", {"patient": "charlie", "nurse": "bob"}, "hospital")
    share = _hospital_event("e1", "Share", {"patient": "charlie", "sharer": "bob"}, "bob")
    complaint = _hospital_event("e2", "Complaint", {"patient": "charlie"}, "charlie")
    discharge = _hospital_event("e4", "Discharge", {"patient": "charlie"}, "hospital")
    consent = _hospital_event("e5", "Consent", {"patient": "charlie"}, "charlie")
    prefix = build_chain([[admit]])
    block = _hospital_block(prefix, share)
    assert verdict(prefix, block) is None
    prefix = prefix.extend(block)

    # Rejected at its second event, then the honest block on the same prefix.
    unbound = _hospital_block(prefix, complaint, report("e3", "inv-001", "zed"))
    assert verdict(prefix, unbound) == "IntegrityViolation"
    honest = _hospital_block(prefix, complaint, report("e3", "inv-001", "charlie"))
    assert verdict(prefix, honest) is None
    chain = prefix.extend(honest)

    # Rejected, then extended anyway, as a monitor may: its events count.
    duplicate = _hospital_block(chain, discharge, share)
    assert verdict(chain, duplicate) == "DuplicateEventId"
    rejected = chain.extend(duplicate)
    assert verdict(rejected, _hospital_block(rejected, discharge)) == "DuplicateEventId"

    # Two competing blocks on one prefix; the one validated first is adopted.
    first, second = _hospital_block(chain, discharge), _hospital_block(chain, consent)
    assert verdict(chain, first) is None
    assert verdict(chain, second) is None
    chain = chain.extend(first)
    after = _hospital_block(chain, consent)
    assert verdict(chain, after) is None
    chain = chain.extend(after)

    # A block never validated; then the older prefix extended once more.
    dave = _hospital_event("e6", "Admit", {"patient": "dave", "nurse": "alice"}, "hospital")
    erin = _hospital_event("e6", "Admit", {"patient": "erin", "nurse": "alice"}, "hospital")
    older, chain = chain, chain.extend(_hospital_block(chain, dave))
    fork = older.extend(_hospital_block(older, erin))
    for_dave, for_erin = report("e7", "inv-002", "dave", "alice"), report("e7", "inv-002", "erin", "alice")
    assert verdict(chain, _hospital_block(chain, for_dave)) is None
    assert verdict(fork, _hospital_block(fork, for_dave)) == "IntegrityViolation"
    assert verdict(fork, _hospital_block(fork, for_erin)) is None

    # Another rules object, None: the index kept for it holds event ids only.
    frank = _hospital_event("e8", "Admit", {"patient": "frank", "nurse": "bob"}, "hospital")
    ids_only = _hospital_block(chain, frank)
    assert verdict(chain, ids_only, rules=None) is None
    chain = chain.extend(ids_only)
    assert verdict(chain, _hospital_block(chain, report("e9", "inv-003", "frank"))) is None

    assert chain._admission
    assert chain == Chain(blocks=chain.blocks)
    assert hash(chain) == hash(Chain(blocks=chain.blocks))
    assert repr(chain) == repr(Chain(blocks=chain.blocks))


def test_a_monitor_adds_each_event_to_the_index_once(monkeypatch):
    """validate_block then extend, block by block: the index grows by each
    event once rather than being rebuilt from genesis for every block."""
    generators = bench_generators()
    blocks, config = generators.peerreview_inputs(1, 20)
    spec = parse_compact((DEMOS / "peerreview.cpt").read_text())
    rules, org = ruleset_from_spec(spec), Organization.make(spec.context, config["roles"])
    roster = {p["id"]: p["secret"] for p in config["principals"]}
    adds = []
    real_add = LedgerIndex.add

    def counting_add(index, event):
        adds.append(event.event_id)
        real_add(index, event)

    monkeypatch.setattr(LedgerIndex, "add", counting_add)
    chain = genesis_chain()
    for block in blocks:
        assert validate_block(chain, block, generators.DEMO_TARGET, roster, rules, org.roles_of) is None
        chain = chain.extend(block)
    assert any(not block.events for block in blocks)
    assert adds == [event.event_id for event in chain.events()]
